//! The greedy accelerator-merging loop and its outcome.

use crate::dfg::{merge_saving, merge_units, units_of_design, DatapathUnit};
use cayman_ir::Module;
use cayman_select::Solution;

/// A reusable accelerator: a group of kernels sharing at least one merged
/// datapath unit, each keeping its own control FSM.
#[derive(Debug, Clone)]
pub struct ReusableAccelerator {
    /// Kernel indices (into the solution's kernel list) served by this
    /// accelerator.
    pub kernels: Vec<usize>,
}

impl ReusableAccelerator {
    /// Number of distinct program regions this accelerator serves.
    pub fn region_count(&self) -> usize {
        self.kernels.len()
    }
}

/// Outcome of merging one solution's accelerators.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// Sum of standalone accelerator areas before merging.
    pub area_before: f64,
    /// Total area after merging (standalone non-datapath area unchanged;
    /// datapath area reduced by the achieved savings).
    pub area_after: f64,
    /// Number of pairwise merges performed.
    pub merges: usize,
    /// Reusable accelerators (groups of ≥ 2 kernels).
    pub reusable: Vec<ReusableAccelerator>,
    /// Final datapath units after merging.
    pub units: Vec<DatapathUnit>,
}

impl MergeResult {
    /// Area saved as a fraction of the pre-merge area (the paper's
    /// "Area saving (%)" columns of Table II).
    pub fn saving_fraction(&self) -> f64 {
        if self.area_before <= 0.0 {
            return 0.0;
        }
        (self.area_before - self.area_after) / self.area_before
    }

    /// Average number of program regions per reusable accelerator
    /// (the paper reports ≈3 on average).
    pub fn avg_regions_per_reusable(&self) -> f64 {
        if self.reusable.is_empty() {
            return 0.0;
        }
        self.reusable
            .iter()
            .map(|r| r.region_count() as f64)
            .sum::<f64>()
            / self.reusable.len() as f64
    }
}

/// Runs the paper's heuristic merging on a selection solution:
///
/// 1. extract datapath units from every configured accelerator,
/// 2. repeatedly merge the unit pair with the maximum positive estimated
///    saving (units from the *same* kernel never merge with each other —
///    sequential datapaths already share functional units internally),
/// 3. stop when no pair saves area.
pub fn merge_solution(module: &Module, solution: &Solution) -> MergeResult {
    let _s = cayman_obs::span!("merge.solution", kernels = solution.kernels.len());
    let mut units: Vec<DatapathUnit> = Vec::new();
    for (i, k) in solution.kernels.iter().enumerate() {
        units.extend(units_of_design(module, i, &k.design));
    }
    let area_before: f64 = solution.kernels.iter().map(|k| k.design.area).sum();

    let mut merges = 0usize;
    let mut total_saving = 0.0f64;
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..units.len() {
            for j in (i + 1)..units.len() {
                // Same-kernel units never merge with each other.
                if units[i]
                    .kernels
                    .iter()
                    .any(|k| units[j].kernels.contains(k))
                {
                    continue;
                }
                let s = merge_saving(&units[i], &units[j]);
                if s > 0.0 && best.map(|(_, _, bs)| s > bs).unwrap_or(true) {
                    best = Some((i, j, s));
                }
            }
        }
        let Some((i, j, s)) = best else { break };
        let merged = merge_units(&units[i], &units[j]);
        // Remove j first (higher index), then i.
        units.swap_remove(j);
        units.swap_remove(i);
        units.push(merged);
        merges += 1;
        total_saving += s;
    }

    // Group kernels by shared units (union-find over unit membership).
    let n_kernels = solution.kernels.len();
    let mut parent: Vec<usize> = (0..n_kernels).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for u in &units {
        for w in u.kernels.windows(2) {
            let a = find(&mut parent, w[0]);
            let b = find(&mut parent, w[1]);
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for k in 0..n_kernels {
        let r = find(&mut parent, k);
        groups.entry(r).or_default().push(k);
    }
    let reusable: Vec<ReusableAccelerator> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|kernels| ReusableAccelerator { kernels })
        .collect();

    MergeResult {
        area_before,
        area_after: (area_before - total_saving).max(0.0),
        merges,
        reusable,
        units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_analysis::profile::Profile;
    use cayman_analysis::wpst::Wpst;
    use cayman_hls::inputs::{FuncInputs, FuncPrints};
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::interp::Interp;
    use cayman_ir::Type;
    use cayman_select::{run_selection, CaymanModel, DesignCache, SelectOptions, SelectionResult};

    /// Three functions with identical multiply-accumulate loops — the 3mm
    /// situation where merging shines.
    fn triple_mac() -> cayman_ir::Module {
        let mut mb = ModuleBuilder::new("t");
        let n = 96usize;
        let mut funcs = Vec::new();
        let arrays: Vec<_> = (0..3)
            .map(|k| {
                (
                    mb.array(format!("x{k}"), Type::F64, &[n]),
                    mb.array(format!("y{k}"), Type::F64, &[n]),
                    mb.array(format!("z{k}"), Type::F64, &[n]),
                )
            })
            .collect();
        for (k, &(x, y, z)) in arrays.iter().enumerate() {
            let f = mb.function(format!("mac{k}"), &[], None, |fb| {
                fb.counted_loop(0, n as i64, 1, |fb, i| {
                    let xv = fb.load_idx(x, &[i]);
                    let yv = fb.load_idx(y, &[i]);
                    let p = fb.fmul(xv, yv);
                    let s = fb.fadd(p, fb.fconst(1.0));
                    fb.store_idx(z, &[i], s);
                });
                fb.ret(None);
            });
            funcs.push(f);
        }
        mb.function("main", &[], None, |fb| {
            for &f in &funcs {
                fb.call(f, &[], None);
            }
            fb.ret(None);
        });
        mb.finish()
    }

    /// A one-off selection with Cayman's default model and a fresh cache.
    fn select(
        module: &cayman_ir::Module,
        wpst: &Wpst,
        profile: &Profile,
        inputs: &[FuncInputs<'_>],
    ) -> SelectionResult {
        run_selection(
            module,
            wpst,
            profile,
            inputs,
            &SelectOptions::default(),
            &CaymanModel::default(),
            &DesignCache::new(),
            None,
        )
    }

    #[allow(clippy::type_complexity)]
    fn analyse(
        module: &cayman_ir::Module,
    ) -> (
        Wpst,
        Profile,
        Vec<cayman_analysis::access::AccessAnalysis>,
        Vec<Vec<cayman_analysis::memdep::LoopDeps>>,
        Vec<Vec<f64>>,
        Vec<FuncPrints>,
    ) {
        module.verify().expect("verifies");
        let wpst = Wpst::build(module);
        let exec = Interp::new(module).run(&[]).expect("runs");
        let profile = Profile::aggregate(module, &wpst, &exec);
        let mut accesses = Vec::new();
        let mut deps = Vec::new();
        let mut trips = Vec::new();
        let mut prints = Vec::new();
        for f in module.function_ids() {
            let func = module.function(f);
            let ctx = &wpst.func_ctxs[f.index()];
            let mut scev = cayman_analysis::scev::Scev::new(func, ctx);
            let aa = cayman_analysis::access::AccessAnalysis::run(module, func, ctx, &mut scev);
            let dd = cayman_analysis::memdep::analyse_loop_deps(func, ctx, &mut scev, &aa);
            let tt: Vec<f64> = ctx
                .forest
                .ids()
                .map(|l| {
                    cayman_analysis::access::trip_count(&wpst, &profile, func, f, l).unwrap_or(1.0)
                })
                .collect();
            prints.push(FuncPrints::compute(module, func, ctx, &aa, &dd));
            accesses.push(aa);
            deps.push(dd);
            trips.push(tt);
        }
        (wpst, profile, accesses, deps, trips, prints)
    }

    #[test]
    fn identical_kernels_merge_with_large_savings() {
        let module = triple_mac();
        let (wpst, profile, accesses, deps, trips, prints) = analyse(&module);
        let inputs: Vec<FuncInputs<'_>> = module
            .function_ids()
            .map(|f| FuncInputs {
                module: &module,
                func_id: f,
                ctx: &wpst.func_ctxs[f.index()],
                accesses: &accesses[f.index()],
                deps: &deps[f.index()],
                trips: &trips[f.index()],
                block_counts: &profile.block_counts[f.index()],
                prints: &prints[f.index()],
            })
            .collect();
        let res = select(&module, &wpst, &profile, &inputs);
        // take the biggest solution: should include all three kernels
        let sol = res.pareto.last().expect("solutions exist");
        assert!(sol.kernels.len() >= 3, "{} kernels", sol.kernels.len());

        let merged = merge_solution(&module, sol);
        assert!(merged.merges >= 2, "three identical kernels chain-merge");
        assert!(
            merged.saving_fraction() > 0.10,
            "substantial saving, got {:.3}",
            merged.saving_fraction()
        );
        assert!(merged.area_after < merged.area_before);
        // one reusable accelerator serving ≥ 3 regions
        assert_eq!(merged.reusable.len(), 1);
        assert!(merged.reusable[0].region_count() >= 3);
        assert!(merged.avg_regions_per_reusable() >= 3.0);
    }

    #[test]
    fn single_kernel_solution_has_nothing_to_merge() {
        let module = triple_mac();
        let (wpst, profile, accesses, deps, trips, prints) = analyse(&module);
        let inputs: Vec<FuncInputs<'_>> = module
            .function_ids()
            .map(|f| FuncInputs {
                module: &module,
                func_id: f,
                ctx: &wpst.func_ctxs[f.index()],
                accesses: &accesses[f.index()],
                deps: &deps[f.index()],
                trips: &trips[f.index()],
                block_counts: &profile.block_counts[f.index()],
                prints: &prints[f.index()],
            })
            .collect();
        let res = select(&module, &wpst, &profile, &inputs);
        let single = res
            .pareto
            .iter()
            .find(|s| s.kernels.len() == 1)
            .expect("a one-kernel solution exists");
        let merged = merge_solution(&module, single);
        assert_eq!(merged.merges, 0);
        assert_eq!(merged.saving_fraction(), 0.0);
        assert!(merged.reusable.is_empty());
    }

    #[test]
    fn empty_solution_is_a_noop() {
        let module = triple_mac();
        let sol = cayman_select::Solution::empty();
        let merged = merge_solution(&module, &sol);
        assert_eq!(merged.area_before, 0.0);
        assert_eq!(merged.saving_fraction(), 0.0);
    }
}
