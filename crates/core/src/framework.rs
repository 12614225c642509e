//! The end-to-end Cayman framework driver (Fig. 1): application in,
//! Pareto-optimal accelerator solutions out, with baseline comparisons and
//! budgeted reports.

use crate::app::{AnalyseOptions, Application};
use crate::CaymanError;
use cayman_baselines::{NoviaModel, QsCoresModel};
use cayman_hls::CVA6_TILE_AREA;
use cayman_merge::{merge_solution, MergeResult};
use cayman_select::{
    run_selection, AccelModel, CacheStats, CaymanModel, DesignCache, DesignStoreBackend,
    SelectOptions, SelectionResult, Solution,
};
use cayman_workloads::Workload;
use std::sync::Arc;

/// The framework: owns an analysed [`Application`] and runs selection,
/// merging and baseline comparisons against it.
///
/// All selection entry points share one [`DesignCache`]: the cache is keyed
/// by model identity × candidate identity and the framework owns exactly one
/// analysed application, so re-running selection (budget sweeps, ablations,
/// repeated reports) memoises every `accel(v, R)` model invocation.
#[derive(Debug)]
pub struct Framework {
    /// The analysed application.
    pub app: Application,
    /// Memoised accelerator designs, shared across selection runs.
    cache: DesignCache,
}

/// Everything Table II reports for one benchmark under one area budget.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// Area budget as a fraction of the CVA6 tile.
    pub budget_frac: f64,
    /// Cayman's speedup (Eq. (1)).
    pub speedup: f64,
    /// Solution area (before merging), absolute units.
    pub area: f64,
    /// Number of selected kernels.
    pub kernels: usize,
    /// Sequential basic blocks synthesised (#SB).
    pub sb: usize,
    /// Pipelined regions (#PR).
    pub pr: usize,
    /// Coupled interfaces (#C).
    pub c: usize,
    /// Decoupled interfaces (#D).
    pub d: usize,
    /// Scratchpad-family interfaces (#S: plain, banked, double-buffered).
    pub s: usize,
    /// Line-buffer interfaces (#LB).
    pub lb: usize,
    /// Area saving from accelerator merging, percent.
    pub area_saving_pct: f64,
    /// Number of reusable (merged) accelerators.
    pub reusable: usize,
    /// Average program regions per reusable accelerator.
    pub avg_regions_per_reusable: f64,
}

impl Framework {
    /// Builds the framework from a raw module (zeroed inputs, default
    /// [`AnalyseOptions`]: `-O1`).
    ///
    /// # Errors
    ///
    /// Fails when verification or profiling execution fails.
    pub fn from_module(module: cayman_ir::Module) -> Result<Self, CaymanError> {
        Self::from_module_with(module, &AnalyseOptions::default())
    }

    /// Builds the framework from a raw module with explicit analyse staging
    /// options.
    ///
    /// # Errors
    ///
    /// Fails when verification or profiling execution fails.
    pub fn from_module_with(
        module: cayman_ir::Module,
        opts: &AnalyseOptions,
    ) -> Result<Self, CaymanError> {
        Ok(Framework {
            app: Application::analyse_with(module, None, opts)?,
            cache: DesignCache::new(),
        })
    }

    /// Builds the framework from a textual kernel (the `.cir` fixture
    /// format): parse → verify → profile → analyse, with zeroed inputs and
    /// default [`AnalyseOptions`].
    ///
    /// # Errors
    ///
    /// Fails when parsing, verification or profiling execution fails.
    pub fn from_text(text: &str) -> Result<Self, CaymanError> {
        Self::from_module(cayman_ir::Module::parse_text(text)?)
    }

    /// Builds the framework from a benchmark workload (realistic inputs,
    /// default [`AnalyseOptions`]: `-O1`).
    ///
    /// # Errors
    ///
    /// Fails when verification or profiling execution fails.
    pub fn from_workload(w: &Workload) -> Result<Self, CaymanError> {
        Self::from_workload_with(w, &AnalyseOptions::default())
    }

    /// Builds the framework from a benchmark workload with explicit analyse
    /// staging options.
    ///
    /// # Errors
    ///
    /// Fails when verification or profiling execution fails.
    pub fn from_workload_with(w: &Workload, opts: &AnalyseOptions) -> Result<Self, CaymanError> {
        Ok(Framework {
            app: Application::analyse_with(w.module.clone(), Some(w.memory()), opts)?,
            cache: DesignCache::new(),
        })
    }

    /// The wPST rendered as text (Fig. 2c style).
    pub fn wpst_text(&self) -> String {
        self.app.wpst.to_text(&self.app.module)
    }

    /// Which interpreter engine profiled the application (`"decoded"` for
    /// every verified module).
    pub fn profiling_engine(&self) -> &'static str {
        self.app.profiling_engine
    }

    /// Runs Algorithm 1 with an arbitrary accelerator model against this
    /// framework's shared design cache.
    pub fn select_with(&self, opts: &SelectOptions, model: &dyn AccelModel) -> SelectionResult {
        let inputs = self.app.inputs();
        run_selection(
            &self.app.module,
            &self.app.wpst,
            &self.app.profile,
            &inputs,
            opts,
            model,
            &self.cache,
            None,
        )
    }

    /// Runs Cayman's selection (Algorithm 1 with the full accelerator model).
    pub fn select(&self, opts: &SelectOptions) -> SelectionResult {
        self.select_with(opts, &CaymanModel(opts.model.clone()))
    }

    /// Runs selection with the NOVIA baseline model.
    pub fn select_novia(&self, opts: &SelectOptions) -> SelectionResult {
        self.select_with(opts, &NoviaModel)
    }

    /// Runs selection with the QsCores baseline model.
    pub fn select_qscores(&self, opts: &SelectOptions) -> SelectionResult {
        self.select_with(opts, &QsCoresModel)
    }

    /// Backs the design cache with a persistent second level (typically
    /// `cayman-store`'s content-addressed disk store): inserts write
    /// through, memory misses consult the store. Call before the first
    /// selection run so cold evaluations are persisted from the start.
    pub fn set_design_store(&mut self, store: Arc<dyn DesignStoreBackend>) {
        self.cache.set_backing(store);
    }

    /// Whether a persistent design store is attached.
    pub fn has_design_store(&self) -> bool {
        self.cache.has_backing()
    }

    /// Lifetime `(hits, misses)` of the framework's design cache.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.cache.totals()
    }

    /// Per-stripe + store-level counter snapshot of the design cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of memoised candidate entries in the design cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every memoised design and resets the cache counters, keeping
    /// the persistent backing store (and its contents) attached. The next
    /// selection re-loads designs from the store instead of the model.
    pub fn clear_design_cache(&self) {
        self.cache.clear();
    }

    /// Speedup of a solution for this application (Eq. (1)).
    pub fn speedup(&self, sol: &Solution) -> f64 {
        sol.speedup(self.app.total_cycles())
    }

    /// Merges a solution's accelerators (§III-E).
    pub fn merge(&self, sol: &Solution) -> MergeResult {
        merge_solution(&self.app.module, sol)
    }

    /// Emits structural Verilog for every kernel of a solution, plus a
    /// reusable-accelerator wrapper per merged group (§III-E / Fig. 5).
    ///
    /// Returns `(module_name, verilog_source)` pairs.
    pub fn emit_rtl(&self, sol: &Solution) -> Vec<(String, String)> {
        use cayman_hls::rtl::{emit_reusable_verilog, emit_verilog};
        let mut out = Vec::new();
        let names: Vec<String> = sol
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{}_k{}", self.app.module.function(k.design.func).name, i))
            .collect();
        for (k, name) in sol.kernels.iter().zip(&names) {
            out.push((
                name.clone(),
                emit_verilog(&self.app.module, &k.design, name),
            ));
        }
        let merged = self.merge(sol);
        for (g, group) in merged.reusable.iter().enumerate() {
            let members: Vec<String> = group.kernels.iter().map(|&i| names[i].clone()).collect();
            // Shared FU inventory = union of the group's merged units.
            let mut fus = std::collections::BTreeMap::new();
            let mut cfg_bits = 0u32;
            for u in merged
                .units
                .iter()
                .filter(|u| u.kernels.iter().any(|k| group.kernels.contains(k)))
            {
                for (&c, &n) in &u.classes {
                    let e = fus.entry(c).or_insert(0);
                    *e = (*e).max(n);
                    cfg_bits += n;
                }
            }
            let name = format!("reusable{g}");
            out.push((
                name.clone(),
                emit_reusable_verilog(&members, &fus, cfg_bits.max(1), &name),
            ));
        }
        out
    }

    /// Produces the Table II row data for one budget: selects under
    /// `budget_frac × CVA6_TILE_AREA`, merges, and reports.
    pub fn report(&self, selection: &SelectionResult, budget_frac: f64) -> BudgetReport {
        let budget = budget_frac * CVA6_TILE_AREA;
        let sol = selection.best_under(budget);
        let merged = self.merge(sol);
        let (sb, pr) = sol.sb_pr();
        let (c, d, s, lb) = sol.iface_counts();
        BudgetReport {
            budget_frac,
            speedup: self.speedup(sol),
            area: sol.area,
            kernels: sol.kernels.len(),
            sb,
            pr,
            c,
            d,
            s,
            lb,
            area_saving_pct: merged.saving_fraction() * 100.0,
            reusable: merged.reusable.len(),
            avg_regions_per_reusable: merged.avg_regions_per_reusable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_on_a_real_benchmark() {
        let w = cayman_workloads::by_name("atax").expect("atax exists");
        let fw = Framework::from_workload(&w).expect("analyses");
        assert_eq!(fw.profiling_engine(), "decoded");
        let opts = SelectOptions::default();
        let cayman = fw.select(&opts);
        let novia = fw.select_novia(&opts);
        let qscores = fw.select_qscores(&opts);

        let budget = 0.25;
        let rc = fw.report(&cayman, budget);
        let rn_sol = novia.best_under(budget * CVA6_TILE_AREA);
        let rq_sol = qscores.best_under(budget * CVA6_TILE_AREA);

        // Cayman beats both baselines on the same budget.
        let sp_c = rc.speedup;
        let sp_n = fw.speedup(rn_sol);
        let sp_q = fw.speedup(rq_sol);
        assert!(sp_c > sp_n, "cayman {sp_c} vs novia {sp_n}");
        assert!(sp_c > sp_q, "cayman {sp_c} vs qscores {sp_q}");
        assert!(sp_c > 1.5, "meaningful acceleration: {sp_c}");
        assert!(rc.area <= budget * CVA6_TILE_AREA);
        assert!(rc.pr > 0, "atax pipelines its loops");
    }

    #[test]
    fn framework_cache_warms_across_selection_runs() {
        let w = cayman_workloads::by_name("atax").expect("atax");
        let fw = Framework::from_workload(&w).expect("analyses");
        let opts = SelectOptions::default();
        let cold = fw.select(&opts);
        assert_eq!(cold.stats.cache_hits, 0);
        assert!(cold.stats.cache_misses > 0);
        assert!(fw.cache_len() > 0);
        let warm = fw.select(&opts);
        assert_eq!(warm.stats.cache_misses, 0, "fully memoised");
        assert!(warm.stats.cache_hits > 0);
        assert_eq!(warm.pareto.len(), cold.pareto.len());
        // baselines use disjoint cache partitions, so they miss (not collide)
        let novia = fw.select_novia(&opts);
        assert_eq!(novia.stats.cache_hits, 0);
        let (hits, misses) = fw.cache_totals();
        assert!(hits > 0 && misses > 0);
    }

    #[test]
    fn schedulers_agree_through_the_framework() {
        let w = cayman_workloads::by_name("atax").expect("atax");
        let fw = Framework::from_workload(&w).expect("analyses");
        let reference = fw.select(&SelectOptions::default());
        assert_eq!(reference.stats.scheduler, "seq");
        for threads in [2usize, 3, 8] {
            let opts = SelectOptions {
                threads,
                ..Default::default()
            };
            // The shared design cache is warm after the first run; the front
            // must stay bit-identical regardless of engine, thread budget, or
            // cache state.
            let res = fw.select(&opts);
            assert_eq!(res.stats.scheduler, "steal");
            assert_eq!(res.pareto.len(), reference.pareto.len());
            for (a, b) in res.pareto.iter().zip(&reference.pareto) {
                assert_eq!(a.area.to_bits(), b.area.to_bits());
                assert_eq!(a.saved_seconds.to_bits(), b.saved_seconds.to_bits());
                assert_eq!(a.kernels.len(), b.kernels.len());
            }
            assert_eq!(res.visited, reference.visited);
        }
    }

    #[test]
    fn wpst_text_shows_functions() {
        let w = cayman_workloads::by_name("atax").expect("atax");
        let fw = Framework::from_workload(&w).expect("analyses");
        let text = fw.wpst_text();
        assert!(text.contains("func @atax_kernel"), "{text}");
        assert!(text.contains("ctrl-flow loop"), "{text}");
    }
}
