//! Property-based tests of the Pareto machinery that Algorithm 1's
//! complexity bound and optimality-preservation rest on, and of the ranked
//! reductions' bit-identity with building every candidate first.

use cayman_analysis::wpst::WpstNodeId;
use cayman_hls::{AcceleratorDesign, ACCEL_FREQ_HZ};
use cayman_ir::cpu_model::CPU_FREQ_HZ;
use cayman_ir::{BlockId, FuncId};
use cayman_select::{combine, filter, fold, pareto, with_designs, Solution};
use cayman_testkit::{prop_assert, prop_assert_eq, prop_check, Rng};
use std::borrow::Cow;

fn sol(area: f64, saved: f64) -> Solution {
    Solution {
        kernels: Vec::new(),
        area,
        saved_seconds: saved,
    }
}

/// Up to 60 random solutions with areas in `[0, 1e6)` and savings in
/// `[-1e-3, 1e-3)`.
fn gen_solutions(rng: &mut Rng) -> Vec<Solution> {
    (0..rng.range_usize(0, 60))
        .map(|_| sol(rng.range_f64(0.0, 1e6), rng.range_f64(-1e-3, 1e-3)))
        .collect()
}

/// `pareto` output is sorted, strictly dominating, and contains the input's
/// best saving.
#[test]
fn pareto_is_a_proper_front() {
    prop_check!(|rng| {
        let input = gen_solutions(rng);
        let best_in = input.iter().map(|s| s.saved_seconds).fold(0.0f64, f64::max);
        let out = pareto(input);
        prop_assert!(!out.is_empty());
        prop_assert_eq!(out[0].area, 0.0);
        for w in out.windows(2) {
            prop_assert!(w[1].area > w[0].area);
            prop_assert!(w[1].saved_seconds > w[0].saved_seconds);
        }
        let best_out = out.last().expect("non-empty").saved_seconds;
        prop_assert!(best_out >= best_in - 1e-15);
        Ok(())
    });
}

/// `filter` returns a subset, enforces α-spacing, keeps the empty solution,
/// and never discards the overall best.
#[test]
fn filter_preserves_the_best() {
    prop_check!(|rng| {
        let input = gen_solutions(rng);
        let alpha = rng.range_f64(1.01, 3.0);
        let front = pareto(input);
        let best = front.last().expect("non-empty").saved_seconds;
        let len_before = front.len();
        let out = filter(front, alpha);
        prop_assert!(out.len() <= len_before);
        prop_assert_eq!(out[0].area, 0.0);
        prop_assert!((out.last().expect("non-empty").saved_seconds - best).abs() < 1e-18);
        for w in out.windows(2) {
            if w[0].area > 0.0 {
                prop_assert!(
                    w[1].area >= alpha * w[0].area - 1e-9,
                    "spacing violated: {} then {}",
                    w[0].area,
                    w[1].area
                );
            }
        }
        Ok(())
    });
}

/// The kept-sequence length is logarithmic in the area range.
#[test]
fn filter_bounds_sequence_length() {
    prop_check!(|rng| {
        let input = gen_solutions(rng);
        let alpha = rng.range_f64(1.1, 2.0);
        let out = filter(pareto(input), alpha);
        // areas < 1e6; smallest non-zero kept could be tiny, so bound by the
        // ratio between largest and smallest kept non-zero areas.
        let nonzero: Vec<f64> = out.iter().map(|s| s.area).filter(|&a| a > 0.0).collect();
        if nonzero.len() >= 2 {
            let ratio = nonzero.last().expect("len>=2") / nonzero[0];
            let bound = ratio.log(alpha).ceil() as usize + 2;
            prop_assert!(
                nonzero.len() <= bound,
                "{} kept for ratio {ratio}",
                nonzero.len()
            );
        }
        Ok(())
    });
}

/// `⊗` is conservative: every output is a sum of one solution from each
/// side, and the combined best saving is at least the max of either side's
/// best (union with the empty solution is always available).
#[test]
fn combine_is_additive() {
    prop_check!(|rng| {
        let a = gen_solutions(rng);
        let b = gen_solutions(rng);
        let fa = filter(pareto(a), 1.1);
        let fb = filter(pareto(b), 1.1);
        let best_a = fa.last().expect("non-empty").saved_seconds;
        let best_b = fb.last().expect("non-empty").saved_seconds;
        let c = combine(&fa, &fb, 1.1);
        let best_c = c.last().expect("non-empty").saved_seconds;
        prop_assert!(best_c >= best_a.max(best_b) - 1e-18);
        // additivity of the best: it can't exceed the sum of both bests
        prop_assert!(best_c <= best_a + best_b + 1e-18);
        Ok(())
    });
}

// ---- ranked reductions vs an eager reference -------------------------------
//
// `combine`, `with_designs` and `fold` rank candidates on their totals and
// build only the survivors. The reference below builds every candidate
// first and reduces with the original `pareto`/`filter` loops, so any
// difference in totals, order or kernels shows up bit for bit.

/// The original `pareto`: sort, then a strict-improvement scan that tracks
/// the best saving seen.
fn eager_pareto(mut solutions: Vec<Solution>) -> Vec<Solution> {
    solutions.push(Solution::empty());
    solutions.sort_by(|a, b| {
        a.area
            .partial_cmp(&b.area)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                b.saved_seconds
                    .partial_cmp(&a.saved_seconds)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    let mut out: Vec<Solution> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for s in solutions {
        if s.saved_seconds > best || out.is_empty() {
            best = best.max(s.saved_seconds);
            if out
                .last()
                .map(|l| s.saved_seconds > l.saved_seconds)
                .unwrap_or(true)
            {
                out.push(s);
            }
        }
    }
    out
}

/// The original `filter`: a backward α-greedy over keep flags.
fn eager_filter(solutions: Vec<Solution>, alpha: f64) -> Vec<Solution> {
    let mut keep = vec![false; solutions.len()];
    let mut bound = f64::INFINITY;
    for (i, s) in solutions.iter().enumerate().rev() {
        if s.area <= bound || s.area == 0.0 {
            keep[i] = true;
            if s.area > 0.0 {
                bound = s.area / alpha;
            }
        }
    }
    solutions
        .into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

/// The original `⊗`: every pairwise union built, then reduced.
fn eager_combine(a: &[Solution], b: &[Solution], alpha: f64) -> Vec<Solution> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            out.push(x.union(y));
        }
    }
    eager_filter(eager_pareto(out), alpha)
}

/// The original `bb` leaf (empty `front`) and `ctrl-flow` step: every
/// design built into a solution, then reduced.
fn eager_with_designs(
    mut front: Vec<Solution>,
    v: WpstNodeId,
    designs: &[AcceleratorDesign],
    alpha: f64,
) -> Vec<Solution> {
    front.extend(designs.iter().map(|d| Solution::single(v, d.clone())));
    eager_filter(eager_pareto(front), alpha)
}

/// The original fold: from `{∅}`, `⊗` with every child front in order.
fn eager_fold(
    children: &[Vec<Solution>],
    own: Option<(WpstNodeId, &[AcceleratorDesign])>,
    alpha: f64,
) -> Vec<Solution> {
    let mut f = vec![Solution::empty()];
    for fu in children {
        f = eager_combine(&f, fu, alpha);
    }
    match own {
        Some((v, designs)) => eager_with_designs(f, v, designs, alpha),
        None => f,
    }
}

/// Totals, order and each solution's `(node, blocks)` list, bit for bit.
fn identical(a: &[Solution], b: &[Solution]) -> Result<(), String> {
    let key = |s: &Solution| {
        (
            s.area.to_bits(),
            s.saved_seconds.to_bits(),
            s.kernels
                .iter()
                .map(|k| (k.node, k.design.blocks.clone()))
                .collect::<Vec<_>>(),
        )
    };
    let (ka, kb): (Vec<_>, Vec<_>) = (a.iter().map(key).collect(), b.iter().map(key).collect());
    if ka == kb {
        Ok(())
    } else {
        Err(format!("fronts differ:\n  ranked {ka:?}\n  eager  {kb:?}"))
    }
}

/// A design on a coarse grid: areas in `{0, 100, …, 500}`, savings in
/// eighths of a second from −0.5 to 1.0, so that equal areas, equal
/// savings, zero-area members and ties with `∅` are common and every sum
/// of totals is exact. `id` names its block, so kernels stay tellable.
fn gen_design(rng: &mut Rng, id: u32) -> AcceleratorDesign {
    let eighths = |k: u32, hz: f64| u64::from(k) * (hz / 8.0) as u64;
    AcceleratorDesign {
        func: FuncId(0),
        blocks: vec![BlockId(id)],
        unroll: 1,
        pipelined: Vec::new(),
        pipelined_detail: Vec::new(),
        interfaces: Vec::new(),
        seq_blocks: 1,
        accel_cycles_total: eighths(rng.range_u32(0, 5), ACCEL_FREQ_HZ) as f64,
        area: 100.0 * f64::from(rng.range_u32(0, 6)),
        cpu_cycles: eighths(rng.range_u32(0, 9), CPU_FREQ_HZ),
        entries: 1,
    }
}

/// Up to `max` grid designs with fresh block ids drawn from `next_id`.
fn gen_designs(rng: &mut Rng, next_id: &mut u32, max: usize) -> Vec<AcceleratorDesign> {
    (0..rng.range_usize(0, max))
        .map(|_| {
            *next_id += 1;
            gen_design(rng, *next_id)
        })
        .collect()
}

/// A reduced front of up to `max` grid candidates, each a single kernel on
/// its own vertex.
fn gen_front(rng: &mut Rng, next_id: &mut u32, max: usize, alpha: f64) -> Vec<Solution> {
    let designs = gen_designs(rng, next_id, max);
    let singles = designs
        .into_iter()
        .map(|d| Solution::single(WpstNodeId(d.blocks[0].0), d))
        .collect();
    eager_filter(eager_pareto(singles), alpha)
}

fn gen_alpha(rng: &mut Rng) -> f64 {
    *rng.choose(&[1.0001, 1.1, 1.5, 3.0])
}

/// `⊗` ranked on totals builds exactly the unions the eager `⊗` keeps.
#[test]
fn ranked_combine_matches_eager() {
    prop_check!(|rng| {
        let alpha = gen_alpha(rng);
        let mut id = 0;
        let a = gen_front(rng, &mut id, 12, alpha);
        let b = gen_front(rng, &mut id, 12, alpha);
        identical(&combine(&a, &b, alpha), &eager_combine(&a, &b, alpha))
    });
}

/// The `bb` leaf and the `ctrl-flow` step clone exactly the designs the
/// eager reduction keeps, ties with the front's members and `∅` included.
#[test]
fn ranked_designs_match_eager() {
    prop_check!(|rng| {
        let alpha = gen_alpha(rng);
        let mut id = 0;
        let v = WpstNodeId(1000);
        let designs = gen_designs(rng, &mut id, 16);
        identical(
            &with_designs(Vec::new(), v, &designs, alpha),
            &eager_with_designs(Vec::new(), v, &designs, alpha),
        )?;
        let front = gen_front(rng, &mut id, 12, alpha);
        identical(
            &with_designs(front.clone(), v, &designs, alpha),
            &eager_with_designs(front, v, &designs, alpha),
        )
    });
}

/// The fold seeded with its first child's front equals the eager fold from
/// `{∅}`, with and without a `ctrl-flow` vertex's own designs.
#[test]
fn seeded_fold_matches_eager() {
    prop_check!(|rng| {
        let alpha = gen_alpha(rng);
        let mut id = 0;
        let children: Vec<Vec<Solution>> = (0..rng.range_usize(0, 5))
            .map(|_| gen_front(rng, &mut id, 8, alpha))
            .collect();
        let designs = gen_designs(rng, &mut id, 8);
        let own = rng.bool().then_some((WpstNodeId(1000), designs.as_slice()));
        let seeded = fold(
            children.iter().map(|c| Cow::Borrowed(c.as_slice())),
            own,
            alpha,
        );
        identical(&seeded, &eager_fold(&children, own, alpha))?;
        // Owned children are moved in, not copied; the front is the same.
        let moved = fold(children.iter().cloned().map(Cow::Owned), own, alpha);
        identical(&moved, &seeded)
    });
}
