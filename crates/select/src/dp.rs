//! Algorithm 1: dynamic-programming candidate selection over the wPST.
//!
//! ```text
//! Function DP(vertex v):
//!   if prune(v, R) then return
//!   if v is bb then
//!     F[v] ← filter(pareto(accel(v, R)))
//!   else
//!     F[v] ← ∅
//!     for u ∈ v.children: DP(u); F[v] ← filter(F[v] ⊗ F[u])
//!     if v is ctrl-flow: F[v] ← filter(F[v] ∪ pareto(accel(v, R)))
//! ```
//!
//! `prune` drops subtrees whose profiled duration share is below a threshold
//! (not hotspots); `accel` invokes the `cayman-hls` model; `pareto`/`filter`
//! live in [`mod@crate::pareto`]. `F[root]` is the returned Pareto-optimal
//! solution set for the whole application.
//!
//! [`run_selection`] is the one entry point. `Engine::dp` is the recursive
//! reference engine, run when [`SelectOptions::threads`] `<= 1`; more threads
//! run the work-stealing scheduler in [`crate::sched`]. Both fold child
//! fronts with the same `Engine::fold`, strictly in child order, so the
//! Pareto front is bit-identical for every thread budget. Three engineering
//! layers sit on top of the paper's algorithm:
//!
//! * **Parallel subtrees** — the work-stealing scheduler turns every model
//!   call into a task and spreads them over scoped worker threads
//!   (`std::thread::scope`; no external dependencies).
//! * **Design memoisation** — `accel(v, R)` is pure given the analysed
//!   application, so its results are memoised in a [`DesignCache`] keyed by
//!   model identity × candidate identity. Selection re-runs over the same
//!   application (framework comparisons, ablation and α sweeps) hit the
//!   cache instead of re-running scheduling.
//! * **Front reuse** — given a table of folded fronts, a function vertex
//!   (root child) whose [`FrontKey`] is in it is answered with the stored
//!   front: neither engine descends into it. Incremental re-selection after
//!   an edit only re-folds the functions whose key changed.
//!
//! A [`SelectStats`] snapshot (per-phase wall time, cache hits/misses,
//! vertices visited/pruned) rides on every [`SelectionResult`].

use crate::cache::{DesignCache, DesignKey, ModelId, Source};
use crate::pareto::{combine, filter, pareto, Solution};
use crate::sched::{self, SchedKind};
use crate::stats::{AtomicStats, SelectStats};
use cayman_analysis::profile::Profile;
use cayman_analysis::wpst::{Wpst, WpstKind, WpstNodeId};
use cayman_hls::design::{generate_designs, AcceleratorDesign};
use cayman_hls::inputs::{Candidate, FuncInputs};
use cayman_hls::interface::ModelOptions;
use cayman_ir::fingerprint::fnv1a_u64s;
use cayman_ir::Module;
use cayman_obs::Counter;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// An accelerator model: turns a candidate region into configured designs.
///
/// The default implementation is Cayman's model (`cayman-hls`); the baseline
/// frameworks (NOVIA, QsCores) plug in their own restricted models so the
/// same Algorithm 1 selection machinery drives all three comparisons.
///
/// Models must be [`Sync`]: the parallel DP invokes them from scoped worker
/// threads. Every bundled model is a stateless value, so this is free.
pub trait AccelModel: Sync {
    /// Configurations for accelerating `cand` as one extracted kernel.
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign>;

    /// This model's cache identity, or `None` to opt out of design
    /// memoisation. Two model instances with equal identities must produce
    /// identical designs for equal candidates.
    fn cache_id(&self) -> Option<ModelId> {
        None
    }
}

/// Cayman's own accelerator model (control-flow optimisation + specialised
/// interfaces).
#[derive(Debug, Clone, Default)]
pub struct CaymanModel(pub ModelOptions);

impl AccelModel for CaymanModel {
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign> {
        generate_designs(inputs, cand, &self.0)
    }

    fn cache_id(&self) -> Option<ModelId> {
        Some(ModelId {
            name: "cayman",
            options: self.0.fingerprint(),
        })
    }
}

/// Options steering the selection DP.
#[derive(Debug, Clone)]
pub struct SelectOptions {
    /// Accelerator-model options (β, unroll factors, coupled-only ablation).
    pub model: ModelOptions,
    /// α of the `filter` function (solution-area spacing).
    pub alpha: f64,
    /// `prune` threshold: minimum fraction of total program time a region
    /// must account for to stay in the search.
    pub prune_share: f64,
    /// Worker-thread budget. `1` (the default) runs the recursive reference
    /// DP; more threads run the work-stealing scheduler. The Pareto front is
    /// identical for every value.
    pub threads: usize,
    /// Kept only so struct literals that spell out every field (the
    /// repository benchmark's `sched: Default::default()`) still compile.
    /// No code reads it: `threads` alone picks the engine.
    pub sched: SchedKind,
}

impl Default for SelectOptions {
    fn default() -> Self {
        SelectOptions {
            model: ModelOptions::default(),
            alpha: 1.1,
            prune_share: 0.001,
            threads: 1,
            sched: SchedKind::default(),
        }
    }
}

/// Result of a selection run.
#[derive(Debug)]
pub struct SelectionResult {
    /// Pareto-optimal solutions, by increasing area (first entry is empty).
    pub pareto: Vec<Solution>,
    /// Number of wPST vertices visited (not pruned).
    pub visited: usize,
    /// Total accelerator configurations evaluated by the model (cache hits
    /// included — they were evaluated on the memoised run).
    pub configs_evaluated: usize,
    /// Full observability snapshot for this run.
    pub stats: SelectStats,
}

impl SelectionResult {
    /// The best solution whose area fits `budget` (largest saving).
    ///
    /// Falls back to the front's first entry (the empty solution) when
    /// nothing fits — a negative budget, say — and to a static empty
    /// solution when the front itself is empty, so an empty selection can
    /// never panic a budget sweep.
    pub fn best_under(&self, budget: f64) -> &Solution {
        static EMPTY: Solution = Solution {
            kernels: Vec::new(),
            area: 0.0,
            saved_seconds: 0.0,
        };
        self.pareto
            .iter()
            .rfind(|s| s.area <= budget)
            .or_else(|| self.pareto.first())
            .unwrap_or(&EMPTY)
    }
}

/// Runs Algorithm 1 over the wPST.
///
/// `inputs` must hold one [`FuncInputs`] per module function (indexed by
/// `FuncId`). `accel(v, R)` results are memoised in `cache`, so repeated
/// selection over the same analysed application (framework comparisons,
/// ablation sweeps, α/budget sweeps) reuses them; pass a fresh
/// [`DesignCache`] for a one-off run. The cache must only ever be used with
/// one analysed application: its keys identify candidates and models, not
/// modules or profiles.
///
/// With `fronts`, a table of per-function-subtree fronts shared across
/// re-selections, each function vertex whose [`FrontKey`] is in the table
/// is answered from it, skipping its subtree's DP *and* every model call
/// under it; the fronts folded for keys that missed are inserted after the
/// run, and [`SelectStats::front_hits`]/[`SelectStats::front_misses`] count
/// both. `visited` and the worker stats then reflect only the subtrees
/// actually folded; they are not part of the front-equivalence surface.
#[allow(clippy::too_many_arguments)]
pub fn run_selection(
    module: &Module,
    wpst: &Wpst,
    profile: &Profile,
    inputs: &[FuncInputs<'_>],
    opts: &SelectOptions,
    model: &dyn AccelModel,
    cache: &DesignCache,
    fronts: Option<&mut HashMap<FrontKey, Vec<Solution>>>,
) -> SelectionResult {
    // The obs span is the single wall-clock measurement: it feeds both the
    // trace (when enabled) and the `SelectStats` snapshot.
    let wall = cayman_obs::timed("select.run");
    let keys = if fronts.is_some() {
        front_keys(module, wpst, profile, inputs, opts, model)
    } else {
        Vec::new()
    };
    let stored = match fronts.as_deref() {
        Some(table) => keys
            .iter()
            .map(|k| k.as_ref().and_then(|k| table.get(k)).map(Vec::as_slice))
            .collect(),
        None => Vec::new(),
    };
    let engine = Engine {
        module,
        wpst,
        profile,
        inputs,
        opts,
        model,
        cache,
        stats: AtomicStats::default(),
        reuse: RootReuse {
            keys: &keys,
            stored,
            missed: Mutex::default(),
        },
    };
    let threads = opts.threads.max(1);
    let (pareto, scheduler) = if threads > 1 {
        (sched::run_work_stealing(&engine, threads), "steal")
    } else {
        (engine.dp(wpst.root()), "seq")
    };
    let stats = engine.stats.snapshot(wall.finish(), threads, scheduler);
    let missed = engine
        .reuse
        .missed
        .into_inner()
        .expect("front reuse poisoned");
    // The run's totals reach the process-scope counters once, here. A
    // store hit missed memory and was promoted, so like a model call it
    // counts as a memory miss and an insert.
    static TOTALS: OnceLock<[&Counter; 5]> = OnceLock::new();
    let [mem_hits, mem_misses, mem_inserts, front_hits, front_misses] = *TOTALS.get_or_init(|| {
        [
            "cache.mem.hits",
            "cache.mem.misses",
            "cache.mem.inserts",
            "select.front.hits",
            "select.front.misses",
        ]
        .map(cayman_obs::registry::counter)
    });
    mem_hits.add(stats.cache_hits - stats.disk_hits);
    mem_misses.add(stats.cache_misses + stats.disk_hits);
    mem_inserts.add(stats.cache_misses + stats.disk_hits);
    front_hits.add(stats.front_hits);
    front_misses.add(stats.front_misses);
    if let Some(table) = fronts {
        table.extend(missed);
    }
    SelectionResult {
        pareto,
        visited: stats.visited,
        configs_evaluated: stats.configs_considered,
        stats,
    }
}

/// Identity of one root-child (function-vertex) subtree's folded Pareto
/// front. Everything the DP reads below that vertex is pinned:
///
/// * `node`/`func` — wPST subtrees are numbered contiguously per function,
///   so the function vertex's own id fixes every `WpstNodeId` below it
///   (solutions embed node ids; a shifted numbering must miss);
/// * `content_fp` — the normalized function body, which determines the
///   region tree shape, analyses and static cycle model;
/// * `bc_fp` — the function's profiled block counts (region entries/cycles
///   and profiled trip counts);
/// * `total_cycles` — the whole-program cycle total (`prune`'s denominator
///   and every solution's saved-seconds scale);
/// * `arrays_fp` — array declarations the model reads for interface sizing;
/// * `model`/`alpha_bits`/`prune_bits` — model identity and the DP's own
///   filter/prune parameters, bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontKey {
    /// The function vertex (root child) the front was folded under.
    pub node: WpstNodeId,
    /// The function id.
    pub func: cayman_ir::FuncId,
    /// Normalized-function content fingerprint.
    pub content_fp: u64,
    /// Fingerprint of the function's profiled block counts.
    pub bc_fp: u64,
    /// Whole-program profiled cycle total.
    pub total_cycles: u64,
    /// Fingerprint of the module's array declarations.
    pub arrays_fp: u64,
    /// Accelerator-model identity.
    pub model: ModelId,
    /// `SelectOptions::alpha` bit pattern.
    pub alpha_bits: u64,
    /// `SelectOptions::prune_share` bit pattern.
    pub prune_bits: u64,
}

/// The [`FrontKey`] of each root child, in child order. Only function
/// vertices under a model with a cache identity are keyable; anything else
/// (custom trees, identity-less models) gets `None` and is always folded.
fn front_keys(
    module: &Module,
    wpst: &Wpst,
    profile: &Profile,
    inputs: &[FuncInputs<'_>],
    opts: &SelectOptions,
    model: &dyn AccelModel,
) -> Vec<Option<FrontKey>> {
    let arrays_fp = cayman_ir::fingerprint_arrays(&module.arrays);
    let model_id = model.cache_id();
    wpst.node(wpst.root())
        .children
        .iter()
        .map(|&u| match (wpst.node(u).kind, model_id) {
            (WpstKind::Func(f), Some(model)) => Some(FrontKey {
                node: u,
                func: f,
                content_fp: inputs[f.index()].content_fp,
                bc_fp: fnv1a_u64s(&profile.block_counts[f.index()]),
                total_cycles: profile.total_cycles,
                arrays_fp,
                model,
                alpha_bits: opts.alpha.to_bits(),
                prune_bits: opts.prune_share.to_bits(),
            }),
            _ => None,
        })
        .collect()
}

/// Front reuse for one run, aligned with the root's children. `keys` and
/// `stored` are empty when the run has no front table.
struct RootReuse<'a> {
    /// Each root child's [`FrontKey`].
    keys: &'a [Option<FrontKey>],
    /// Each root child's stored front, where its key hit.
    stored: Vec<Option<&'a [Solution]>>,
    /// The fronts the root fold folded for keys that missed.
    missed: Mutex<Vec<(FrontKey, Vec<Solution>)>>,
}

pub(crate) struct Engine<'a> {
    module: &'a Module,
    pub(crate) wpst: &'a Wpst,
    pub(crate) profile: &'a Profile,
    inputs: &'a [FuncInputs<'a>],
    pub(crate) opts: &'a SelectOptions,
    model: &'a dyn AccelModel,
    cache: &'a DesignCache,
    pub(crate) stats: AtomicStats,
    reuse: RootReuse<'a>,
}

impl<'a> Engine<'a> {
    /// `DP(v)`: the recursive reference engine.
    fn dp(&self, v: WpstNodeId) -> Vec<Solution> {
        // prune(v, R): not a hotspot → empty Pareto set.
        if self.profile.share(v) < self.opts.prune_share {
            AtomicStats::add_usize(&self.stats.pruned, 1);
            return vec![Solution::empty()];
        }
        AtomicStats::add_usize(&self.stats.visited, 1);

        if self.wpst.is_bb(v) {
            return filter(pareto(self.accel(v)), self.opts.alpha);
        }

        let stored = self.stored_fronts(v);
        let child_fronts = self
            .wpst
            .node(v)
            .children
            .iter()
            .enumerate()
            .map(|(i, &u)| match stored.get(i).copied().flatten() {
                Some(front) => Cow::Borrowed(front),
                None => Cow::Owned(self.dp(u)),
            })
            .collect();
        let accel = self.wpst.is_ctrl_flow(v).then(|| self.accel(v));
        self.fold(v, child_fronts, accel)
    }

    /// The stored fronts of `v`'s children, by child index: only the root's
    /// children (function vertices) are ever looked up.
    pub(crate) fn stored_fronts(&self, v: WpstNodeId) -> &[Option<&'a [Solution]>] {
        if v == self.wpst.root() {
            &self.reuse.stored
        } else {
            &[]
        }
    }

    /// `F[v]` from its children's fronts: `combine` strictly in child order —
    /// this keeps the float summation order, and therefore the front,
    /// identical in both engines — then, for a `ctrl-flow` vertex, the union
    /// with its own `accel(v, R)` designs. At the root of a run with a front
    /// table, the fold also records which keyed fronts were stored (borrowed)
    /// and which it folded (owned).
    pub(crate) fn fold(
        &self,
        v: WpstNodeId,
        child_fronts: Vec<Cow<'a, [Solution]>>,
        accel: Option<Vec<Solution>>,
    ) -> Vec<Solution> {
        let t0 = cayman_obs::timed("select.combine");
        let mut f = vec![Solution::empty()];
        for fu in &child_fronts {
            f = combine(&f, fu, self.opts.alpha);
        }
        AtomicStats::add_u64(&self.stats.combine_nanos, t0.finish());

        if let Some(designs) = accel {
            f.extend(designs);
            let t1 = cayman_obs::timed("select.combine");
            f = filter(pareto(f), self.opts.alpha);
            AtomicStats::add_u64(&self.stats.combine_nanos, t1.finish());
        }

        if v == self.wpst.root() && !self.reuse.keys.is_empty() {
            let mut missed = self.reuse.missed.lock().expect("front reuse poisoned");
            for (key, front) in self.reuse.keys.iter().zip(child_fronts) {
                match (key, front) {
                    (Some(_), Cow::Borrowed(_)) => AtomicStats::add_u64(&self.stats.front_hits, 1),
                    (Some(key), Cow::Owned(front)) => {
                        AtomicStats::add_u64(&self.stats.front_misses, 1);
                        missed.push((*key, front));
                    }
                    (None, _) => {}
                }
            }
        }
        f
    }

    /// `accel(v, R)`: configurations for accelerating vertex `v` as a single
    /// extracted kernel, answered from the design cache when possible.
    pub(crate) fn accel(&self, v: WpstNodeId) -> Vec<Solution> {
        let Some((region, func)) = self.wpst.region(v) else {
            return Vec::new();
        };
        if !region.accelerable {
            return Vec::new();
        }
        let rp = self.profile.of(v);
        if rp.entries == 0 || rp.cycles == 0 {
            return Vec::new();
        }
        let cand = Candidate {
            func,
            blocks: region.blocks.clone(),
            entries: rp.entries,
            cpu_cycles: rp.cycles,
            is_bb: matches!(region.kind, cayman_analysis::regions::RegionKind::Bb(_)),
            content_fp: self.inputs[func.index()].content_fp,
        };
        let designs = self.designs_for(&cand, func, v);
        AtomicStats::add_usize(&self.stats.configs_considered, designs.len());
        designs
            .iter()
            .map(|d| Solution::single(v, d.clone()))
            .collect()
    }

    /// Memoised model invocation. `v` only labels the top-k cost breakdown;
    /// it does not participate in the cache key.
    fn designs_for(
        &self,
        cand: &Candidate,
        func: cayman_ir::FuncId,
        v: WpstNodeId,
    ) -> Arc<Vec<AcceleratorDesign>> {
        let key = self.model.cache_id().map(|model| DesignKey {
            model,
            candidate: cand.key(),
        });
        if let Some(key) = &key {
            match self.cache.lookup(key) {
                Some((hit, Source::Memory)) => {
                    AtomicStats::add_u64(&self.stats.mem_hits, 1);
                    return hit;
                }
                Some((hit, Source::Store)) => {
                    AtomicStats::add_u64(&self.stats.disk_hits, 1);
                    return hit;
                }
                None => AtomicStats::add_u64(&self.stats.cache_misses, 1),
            }
        }
        // Label the invocation by function, vertex, and region kind — the
        // same naming trace spans use, so the printed top-k and the trace
        // agree.
        let label = format!(
            "{}#v{}:{}",
            self.module.function(func).name,
            v.index(),
            if cand.is_bb { "bb" } else { "ctrl-flow" }
        );
        let t0 = cayman_obs::timed_with("model.accel", || {
            vec![("region", cayman_obs::ArgValue::Str(label.clone()))]
        });
        let designs = self.model.designs(&self.inputs[func.index()], cand);
        let nanos = t0.finish();
        AtomicStats::add_u64(&self.stats.model_nanos, nanos);
        AtomicStats::add_usize(&self.stats.configs_evaluated, designs.len());
        self.stats.record_accel(label, nanos, designs.len());
        match key {
            Some(key) => self.cache.insert(key, designs),
            None => Arc::new(designs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_analysis::access::{trip_count, AccessAnalysis};
    use cayman_analysis::memdep::{analyse_loop_deps, LoopDeps};
    use cayman_analysis::scev::Scev;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::interp::Interp;
    use cayman_ir::{Module, Type};

    /// Owned analysis state so tests can build `FuncInputs` easily.
    pub(crate) struct App {
        pub module: Module,
        pub wpst: Wpst,
        pub profile: Profile,
        pub accesses: Vec<AccessAnalysis>,
        pub deps: Vec<Vec<LoopDeps>>,
        pub trips: Vec<Vec<f64>>,
        pub content_fps: Vec<u64>,
    }

    impl App {
        pub fn analyse(module: Module) -> App {
            module.verify().expect("verifies");
            let wpst = Wpst::build(&module);
            let exec = Interp::new(&module).run(&[]).expect("runs");
            let profile = Profile::aggregate(&module, &wpst, &exec);
            let mut accesses = Vec::new();
            let mut deps = Vec::new();
            let mut trips = Vec::new();
            for f in module.function_ids() {
                let func = module.function(f);
                let ctx = &wpst.func_ctxs[f.index()];
                let mut scev = Scev::new(func, ctx);
                let aa = AccessAnalysis::run(&module, func, ctx, &mut scev);
                let dd = analyse_loop_deps(func, ctx, &mut scev, &aa);
                let tt: Vec<f64> = ctx
                    .forest
                    .ids()
                    .map(|l| trip_count(&wpst, &profile, func, f, l).unwrap_or(1.0))
                    .collect();
                accesses.push(aa);
                deps.push(dd);
                trips.push(tt);
            }
            let content_fps = module
                .functions
                .iter()
                .map(cayman_ir::fingerprint_function)
                .collect();
            App {
                module,
                wpst,
                profile,
                accesses,
                deps,
                trips,
                content_fps,
            }
        }

        pub fn inputs(&self) -> Vec<FuncInputs<'_>> {
            self.module
                .function_ids()
                .map(|f| FuncInputs {
                    module: &self.module,
                    func_id: f,
                    ctx: &self.wpst.func_ctxs[f.index()],
                    accesses: &self.accesses[f.index()],
                    deps: &self.deps[f.index()],
                    trips: &self.trips[f.index()],
                    block_counts: &self.profile.block_counts[f.index()],
                    content_fp: self.content_fps[f.index()],
                })
                .collect()
        }
    }

    fn two_kernel_app() -> Module {
        let mut mb = ModuleBuilder::new("app");
        let n = 128;
        let x = mb.array("x", Type::F64, &[n]);
        let y = mb.array("y", Type::F64, &[n]);
        let a = mb.array("A", Type::F64, &[n, 16]);
        let b = mb.array("B", Type::F64, &[n, 16]);
        let z = mb.array("z", Type::F64, &[n]);
        let f0 = mb.function("linear", &[], None, |fb| {
            fb.counted_loop(0, n as i64, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let t = fb.fmul(fb.fconst(2.0), xv);
                let v = fb.fadd(t, fb.fconst(1.0));
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        let f1 = mb.function("dot", &[], None, |fb| {
            fb.counted_loop(0, n as i64, 1, |fb, i| {
                fb.counted_loop(0, 16, 1, |fb, j| {
                    let av = fb.load_idx(a, &[i, j]);
                    let bv = fb.load_idx(b, &[i, j]);
                    let p = fb.fmul(av, bv);
                    let zv = fb.load_idx(z, &[i]);
                    let s = fb.fadd(zv, p);
                    fb.store_idx(z, &[i], s);
                });
            });
            fb.ret(None);
        });
        mb.function("main", &[], None, |fb| {
            fb.call(f0, &[], None);
            fb.call(f1, &[], None);
            fb.ret(None);
        });
        mb.finish()
    }

    fn fronts_identical(a: &[Solution], b: &[Solution]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.area.to_bits() == y.area.to_bits()
                    && x.saved_seconds.to_bits() == y.saved_seconds.to_bits()
                    && x.kernels.len() == y.kernels.len()
                    && x.kernels
                        .iter()
                        .zip(&y.kernels)
                        .all(|(k, l)| k.node == l.node && k.design.blocks == l.design.blocks)
            })
    }

    /// A one-off selection with Cayman's model, a fresh cache and no front
    /// table.
    fn select(app: &App, inputs: &[FuncInputs<'_>], opts: &SelectOptions) -> SelectionResult {
        run_selection(
            &app.module,
            &app.wpst,
            &app.profile,
            inputs,
            opts,
            &CaymanModel(opts.model.clone()),
            &DesignCache::new(),
            None,
        )
    }

    #[test]
    fn selection_produces_increasing_pareto_front() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let res = select(&app, &inputs, &SelectOptions::default());
        assert!(res.pareto.len() >= 3, "empty + several real solutions");
        assert!(res.visited > 0);
        assert!(res.configs_evaluated > 0);
        // strictly increasing area and savings
        for w in res.pareto.windows(2) {
            assert!(w[1].area > w[0].area);
            assert!(w[1].saved_seconds > w[0].saved_seconds);
        }
        // the largest solution should accelerate both kernels
        let best = res.pareto.last().expect("non-empty");
        assert!(best.speedup(app.profile.total_cycles) > 1.5);
    }

    #[test]
    fn kernels_never_overlap() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let res = select(&app, &inputs, &SelectOptions::default());
        for sol in &res.pareto {
            // pairwise block-disjointness (within the same function)
            for i in 0..sol.kernels.len() {
                for j in (i + 1)..sol.kernels.len() {
                    let a = &sol.kernels[i].design;
                    let b = &sol.kernels[j].design;
                    if a.func == b.func {
                        assert!(
                            a.blocks.iter().all(|x| !b.blocks.contains(x)),
                            "kernels overlap"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn budget_lookup_is_monotone() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let res = select(&app, &inputs, &SelectOptions::default());
        let small = res.best_under(0.25 * cayman_hls::CVA6_TILE_AREA);
        let large = res.best_under(0.65 * cayman_hls::CVA6_TILE_AREA);
        assert!(large.saved_seconds >= small.saved_seconds);
        assert!(small.area <= 0.25 * cayman_hls::CVA6_TILE_AREA);
    }

    #[test]
    fn aggressive_pruning_empties_selection() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let opts = SelectOptions {
            prune_share: 2.0, // nothing accounts for >200% of runtime
            ..Default::default()
        };
        let res = select(&app, &inputs, &opts);
        assert_eq!(res.pareto.len(), 1, "only the empty solution survives");
        assert_eq!(res.visited, 0);
        assert!(res.stats.pruned > 0, "pruned vertices are counted");
    }

    #[test]
    fn coupled_only_ablation_saves_less() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let full = select(&app, &inputs, &SelectOptions::default());
        let ablated = select(
            &app,
            &inputs,
            &SelectOptions {
                model: ModelOptions::coupled_only(),
                ..Default::default()
            },
        );
        let best_full = full.pareto.last().expect("sol").saved_seconds;
        let best_abl = ablated.pareto.last().expect("sol").saved_seconds;
        assert!(
            best_full > best_abl,
            "full {best_full} vs coupled-only {best_abl}"
        );
    }

    #[test]
    fn parallel_selection_matches_sequential_bitwise() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let reference = select(&app, &inputs, &SelectOptions::default());
        assert_eq!(reference.stats.scheduler, "seq");
        assert!(reference.stats.worker_busy_nanos.is_empty());
        for threads in [2usize, 3, 8] {
            let opts = SelectOptions {
                threads,
                ..Default::default()
            };
            let par = select(&app, &inputs, &opts);
            assert!(
                fronts_identical(&reference.pareto, &par.pareto),
                "threads={threads} changed the front"
            );
            assert_eq!(par.visited, reference.visited, "threads={threads}");
            assert_eq!(par.stats.pruned, reference.stats.pruned);
            assert_eq!(par.configs_evaluated, reference.configs_evaluated);
            assert_eq!(par.stats.threads, threads);
            assert_eq!(par.stats.scheduler, "steal");
            assert!(
                !par.stats.worker_busy_nanos.is_empty(),
                "threads={threads} spawned no workers"
            );
            // A repeated run must also be bit-identical: no steal
            // interleaving may leak into the front.
            let again = select(&app, &inputs, &opts);
            assert!(
                fronts_identical(&par.pareto, &again.pareto),
                "threads={threads} is not reproducible"
            );
        }
    }

    #[test]
    fn best_under_on_an_empty_front_returns_the_empty_solution() {
        let res = SelectionResult {
            pareto: Vec::new(),
            visited: 0,
            configs_evaluated: 0,
            stats: SelectStats::default(),
        };
        let sol = res.best_under(0.5);
        assert!(sol.kernels.is_empty());
        assert_eq!(sol.area, 0.0);
        assert_eq!(sol.saved_seconds, 0.0);
        // And a budget nothing fits still yields the empty fallback rather
        // than a panic on a populated front.
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let full = select(&app, &inputs, &SelectOptions::default());
        assert!(full.best_under(-1.0).kernels.is_empty());
    }

    #[test]
    fn warm_cache_reproduces_the_front_and_skips_the_model() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let opts = SelectOptions::default();
        let model = CaymanModel(opts.model.clone());
        let cache = DesignCache::new();
        let cold = run_selection(
            &app.module,
            &app.wpst,
            &app.profile,
            &inputs,
            &opts,
            &model,
            &cache,
            None,
        );
        assert_eq!(cold.stats.cache_hits, 0);
        assert!(cold.stats.cache_misses > 0);
        assert!(cold.stats.configs_evaluated > 0);
        // Every model invocation is labelled `function#vN` in the top-k
        // breakdown, most expensive first.
        assert!(!cold.stats.top_accel.is_empty());
        assert!(
            cold.stats
                .top_accel
                .iter()
                .all(|c| c.label.contains("#v") && c.designs > 0),
            "{:?}",
            cold.stats.top_accel
        );

        let warm = run_selection(
            &app.module,
            &app.wpst,
            &app.profile,
            &inputs,
            &opts,
            &model,
            &cache,
            None,
        );
        assert!(fronts_identical(&cold.pareto, &warm.pareto));
        assert_eq!(warm.stats.cache_misses, 0, "everything memoised");
        assert_eq!(warm.stats.cache_hits, cold.stats.cache_misses);
        assert_eq!(warm.stats.configs_evaluated, 0, "model never invoked");
        assert!(warm.stats.top_accel.is_empty(), "no model calls to rank");
        assert_eq!(warm.configs_evaluated, cold.configs_evaluated);
    }

    #[test]
    fn ablation_options_do_not_cross_contaminate_the_cache() {
        let app = App::analyse(two_kernel_app());
        let inputs = app.inputs();
        let cache = DesignCache::new();
        let full_opts = SelectOptions::default();
        let abl_opts = SelectOptions {
            model: ModelOptions::coupled_only(),
            ..Default::default()
        };
        let full = run_selection(
            &app.module,
            &app.wpst,
            &app.profile,
            &inputs,
            &full_opts,
            &CaymanModel(full_opts.model.clone()),
            &cache,
            None,
        );
        // Different ModelOptions → different fingerprint → no hits, and the
        // ablation result is unaffected by the warm full-model cache.
        let ablated = run_selection(
            &app.module,
            &app.wpst,
            &app.profile,
            &inputs,
            &abl_opts,
            &CaymanModel(abl_opts.model.clone()),
            &cache,
            None,
        );
        assert_eq!(ablated.stats.cache_hits, 0);
        let best_full = full.pareto.last().expect("sol").saved_seconds;
        let best_abl = ablated.pareto.last().expect("sol").saved_seconds;
        assert!(best_full > best_abl);
    }
}
