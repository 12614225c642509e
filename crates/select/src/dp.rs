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
//! [`run_selection`] is the one entry point, and `Engine::dp` its one
//! engine: the recursion above on the calling thread, folding child fronts
//! strictly in child order so the float summation order, and with it the
//! Pareto front, is fixed. Three engineering layers sit on top of the
//! paper's algorithm:
//!
//! * **Design memoisation** — `accel(v, R)` is pure given what the model
//!   reads about the region, so its results are memoised in a
//!   [`DesignCache`] keyed by model identity × the candidate and its read
//!   set (`cayman_hls::inputs::RegionInputs::key`). Selection re-runs
//!   (framework comparisons, ablation and α sweeps) hit the cache instead
//!   of re-running scheduling, and so do the regions an edit elsewhere left
//!   untouched.
//! * **Front reuse** — given a table of folded fronts, a function vertex
//!   (root child) whose [`FrontKey`] is in it is answered with the stored
//!   front: the engine does not descend into it. Incremental re-selection
//!   after an edit only re-folds the functions whose key changed.
//! * **Build only survivors** — `pareto` and `filter` read only area and
//!   saving, so `⊗` and `accel` rank candidates on those totals
//!   ([`mod@crate::pareto`]). `accel` hands out the design cache's shared
//!   vector, and only the unions and designs that survive are built into
//!   solutions. A fold starts from its first child's front instead of
//!   `{∅} ⊗ F[u₁]`.
//!
//! A [`SelectStats`] snapshot (cache hits/misses, vertices
//! visited/pruned) rides on every [`SelectionResult`]; the time of a run,
//! its folds and its model calls lives in the `select.run`,
//! `select.combine` and `model.accel` trace spans.

use crate::cache::{DesignCache, DesignKey, ModelId, Source};
use crate::pareto::{fold, with_designs, Solution};
use crate::stats::{accel_label, SelectStats};
use cayman_analysis::profile::Profile;
use cayman_analysis::wpst::{Wpst, WpstKind, WpstNodeId};
use cayman_hls::design::{generate_designs, AcceleratorDesign};
use cayman_hls::inputs::{Candidate, FuncInputs, RegionInputs};
use cayman_hls::interface::ModelOptions;
use cayman_ir::Module;
use cayman_obs::Counter;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// An accelerator model: turns a candidate region into configured designs.
///
/// The default implementation is Cayman's model (`cayman-hls`); the baseline
/// frameworks (NOVIA, QsCores) plug in their own restricted models so the
/// same Algorithm 1 selection machinery drives all three comparisons.
///
/// Models must be [`Sync`]: one model value may serve concurrent
/// selections, as on the `Framework` that `caymand`'s connection threads
/// share. Every bundled model is a stateless value, so this is free.
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
    /// Ignored (selection runs on the calling thread); ROADMAP item 8 deletes it.
    pub threads: usize,
    /// Ignored (there is one selection engine); ROADMAP item 8 deletes it.
    pub sched: (),
}

impl Default for SelectOptions {
    fn default() -> Self {
        SelectOptions {
            model: ModelOptions::default(),
            alpha: 1.1,
            prune_share: 0.001,
            threads: 1,
            sched: (),
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
/// [`DesignCache`] for a one-off run. Keys cover everything a model reads
/// about a candidate, so one cache may serve any number of analysed
/// applications; `IncrementalApp` keeps one across edits.
///
/// With `fronts`, a table of per-function-subtree fronts shared across
/// re-selections plus this run's root keys, each function vertex whose
/// [`FrontKey`] is in the table is answered from it, skipping its
/// subtree's DP *and* every model call under it. The keys must be
/// [`front_keys`] of `wpst`, `profile.total_cycles`, each input's
/// `selection_fp`, `opts` and `model.cache_id()`; the caller has them
/// already, as the key of its whole selection. The fronts folded for keys
/// that missed are inserted after the run, and
/// [`SelectStats::front_hits`]/[`SelectStats::front_misses`] count both.
/// `visited` and the other search counters then reflect only the subtrees
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
    fronts: Option<(&mut FrontTable, &[Option<FrontKey>])>,
) -> SelectionResult {
    let _span = cayman_obs::span!("select.run");
    let (table, keys) = match fronts {
        Some((table, keys)) => (Some(table), keys),
        None => (None, &[][..]),
    };
    let stored = match table.as_deref() {
        Some(table) => keys
            .iter()
            .map(|k| k.as_ref().and_then(|k| table.get(k)).map(Vec::as_slice))
            .collect(),
        None => Vec::new(),
    };
    let mut engine = Engine {
        module,
        wpst,
        profile,
        inputs,
        opts,
        model,
        model_id: model.cache_id(),
        cache,
        stats: SelectStats::default(),
        reuse: RootReuse {
            keys,
            stored,
            missed: Vec::new(),
        },
    };
    let pareto = engine.dp(wpst.root());
    let stats = engine.stats;
    let missed = engine.reuse.missed;
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
    if let Some(table) = table {
        table.extend(missed);
    }
    SelectionResult {
        pareto,
        visited: stats.visited,
        stats,
    }
}

/// Folded function-subtree fronts by [`FrontKey`], shared across
/// re-selections.
pub type FrontTable = HashMap<FrontKey, Vec<Solution>>;

/// Identity of one root-child (function-vertex) subtree's folded Pareto
/// front. Everything the DP reads below that vertex is pinned:
///
/// * `node`/`func` — wPST subtrees are numbered contiguously per function,
///   so the function vertex's own id fixes every `WpstNodeId` below it
///   (solutions embed node ids; a shifted numbering must miss);
/// * `selection_fp` — the function's [`FuncPrints::selection_fp`]: its
///   block, loop and array prints (the region tree's shape, the static cycle
///   model's opcodes, the analyses and every model's read set), its
///   profiled block counts (region entries and cycles) and its trip
///   counts. The prints see an immediate's kind, not its value, so an
///   edit that only changes values keeps the key;
/// * `total_cycles` — the whole-program cycle total (`prune`'s denominator
///   and every solution's saved-seconds scale);
/// * `model`/`alpha_bits`/`prune_bits` — model identity and the DP's own
///   filter/prune parameters, bit-exact.
///
/// [`FuncPrints::selection_fp`]: cayman_hls::inputs::FuncPrints::selection_fp
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontKey {
    /// The function vertex (root child) the front was folded under.
    pub node: WpstNodeId,
    /// The function id.
    pub func: cayman_ir::FuncId,
    /// The function's selection fingerprint (`FuncPrints::selection_fp`).
    pub selection_fp: u64,
    /// Whole-program profiled cycle total.
    pub total_cycles: u64,
    /// Accelerator-model identity.
    pub model: ModelId,
    /// `SelectOptions::alpha` bit pattern.
    pub alpha_bits: u64,
    /// `SelectOptions::prune_share` bit pattern.
    pub prune_bits: u64,
}

/// The [`FrontKey`] of each root child, in child order, given each
/// function's [`FuncPrints::selection_fp`] by `FuncId`. Only function
/// vertices under a model with a cache identity are keyable; anything else
/// (custom trees, identity-less models) gets `None` and is always folded.
///
/// The keys are all a selection over `wpst` reads: two runs with equal keys
/// (and equal options) fold bit-identical fronts at the root, so they also
/// key a whole selection.
///
/// [`FuncPrints::selection_fp`]: cayman_hls::inputs::FuncPrints::selection_fp
pub fn front_keys(
    wpst: &Wpst,
    total_cycles: u64,
    selection_fps: &[u64],
    opts: &SelectOptions,
    model_id: Option<ModelId>,
) -> Vec<Option<FrontKey>> {
    wpst.node(wpst.root())
        .children
        .iter()
        .map(|&u| match (wpst.node(u).kind, model_id) {
            (WpstKind::Func(f), Some(model)) => Some(FrontKey {
                node: u,
                func: f,
                selection_fp: selection_fps[f.index()],
                total_cycles,
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
    missed: Vec<(FrontKey, Vec<Solution>)>,
}

struct Engine<'a> {
    module: &'a Module,
    wpst: &'a Wpst,
    profile: &'a Profile,
    inputs: &'a [FuncInputs<'a>],
    opts: &'a SelectOptions,
    model: &'a dyn AccelModel,
    /// `model.cache_id()`, computed once per run: hashing the model's
    /// options on every design lookup would repeat the same work.
    model_id: Option<ModelId>,
    cache: &'a DesignCache,
    stats: SelectStats,
    reuse: RootReuse<'a>,
}

impl<'a> Engine<'a> {
    /// `DP(v)`, recursively.
    fn dp(&mut self, v: WpstNodeId) -> Vec<Solution> {
        // prune(v, R): not a hotspot → empty Pareto set.
        if self.profile.share(v) < self.opts.prune_share {
            self.stats.pruned += 1;
            return vec![Solution::empty()];
        }
        self.stats.visited += 1;

        if self.wpst.is_bb(v) {
            return self.leaf(v);
        }

        // Only the root's children (function vertices) have stored fronts.
        let root = v == self.wpst.root();
        let wpst = self.wpst;
        let child_fronts = wpst
            .node(v)
            .children
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let stored = self.reuse.stored.get(i).filter(|_| root);
                match stored.copied().flatten() {
                    Some(front) => Cow::Borrowed(front),
                    None => Cow::Owned(self.dp(u)),
                }
            })
            .collect();
        let accel = wpst.is_ctrl_flow(v).then(|| self.accel(v));
        self.fold(v, child_fronts, accel)
    }

    /// `F[v]` of a `bb` leaf: `filter(pareto(accel(v, R)))`, cloning only
    /// the designs that survive.
    fn leaf(&mut self, v: WpstNodeId) -> Vec<Solution> {
        with_designs(Vec::new(), v, &self.accel(v), self.opts.alpha)
    }

    /// `F[v]` from its children's fronts and, for a `ctrl-flow` vertex, its
    /// own `accel(v, R)` designs: [`fold`] strictly in child order — this
    /// keeps the float summation order, and therefore the front, fixed. At
    /// the root of a run with a front table, the fold also records which
    /// keyed fronts were stored (borrowed) and which it folded (owned).
    fn fold(
        &mut self,
        v: WpstNodeId,
        child_fronts: Vec<Cow<'a, [Solution]>>,
        designs: Option<Arc<Vec<AcceleratorDesign>>>,
    ) -> Vec<Solution> {
        let _span = cayman_obs::span!("select.combine");
        let own = designs.as_deref().map(|d| (v, d.as_slice()));
        if v != self.wpst.root() || self.reuse.keys.is_empty() {
            return fold(child_fronts, own, self.opts.alpha);
        }
        // Front reuse below still needs the child fronts themselves.
        let borrowed = child_fronts.iter().map(|c| Cow::Borrowed(&**c));
        let f = fold(borrowed, own, self.opts.alpha);
        for (key, front) in self.reuse.keys.iter().zip(child_fronts) {
            match (key, front) {
                (Some(_), Cow::Borrowed(_)) => self.stats.front_hits += 1,
                (Some(key), Cow::Owned(front)) => {
                    self.stats.front_misses += 1;
                    self.reuse.missed.push((*key, front));
                }
                (None, _) => {}
            }
        }
        f
    }

    /// `accel(v, R)`: configurations for accelerating vertex `v` as a single
    /// extracted kernel, answered from the design cache when possible. The
    /// designs are handed out as the cache holds them; the caller ranks
    /// them and clones only those that survive.
    fn accel(&mut self, v: WpstNodeId) -> Arc<Vec<AcceleratorDesign>> {
        let Some((region, func)) = self.wpst.region(v) else {
            return Arc::default();
        };
        if !region.accelerable {
            return Arc::default();
        }
        let rp = self.profile.of(v);
        if rp.entries == 0 || rp.cycles == 0 {
            return Arc::default();
        }
        let cand = Candidate {
            func,
            blocks: region.blocks.clone(),
            entries: rp.entries,
            cpu_cycles: rp.cycles,
            is_bb: matches!(region.kind, cayman_analysis::regions::RegionKind::Bb(_)),
        };
        let designs = self.designs_for(&cand, v);
        self.stats.configs_considered += designs.len();
        designs
    }

    /// Memoised model invocation, keyed by the candidate's read set. `v`
    /// only labels the `model.accel` span; it does not participate in the
    /// cache key.
    fn designs_for(&mut self, cand: &Candidate, v: WpstNodeId) -> Arc<Vec<AcceleratorDesign>> {
        let inputs = &self.inputs[cand.func.index()];
        let key = self.model_id.map(|model| DesignKey {
            model,
            candidate: RegionInputs::new(inputs, cand).key(),
        });
        if let Some(key) = &key {
            match self.cache.lookup(key) {
                Some((hit, Source::Memory)) => {
                    self.stats.cache_hits += 1;
                    return hit;
                }
                Some((hit, Source::Store)) => {
                    self.stats.cache_hits += 1;
                    self.stats.disk_hits += 1;
                    return hit;
                }
                None => self.stats.cache_misses += 1,
            }
        }
        let designs = {
            let _span = cayman_obs::span!(
                "model.accel",
                region = accel_label(self.module, cand.func, v, cand.is_bb)
            );
            self.model.designs(inputs, cand)
        };
        self.stats.configs_evaluated += designs.len();
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
    use cayman_hls::inputs::FuncPrints;
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
        pub prints: Vec<FuncPrints>,
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
            let mut prints = Vec::new();
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
                prints.push(FuncPrints::compute(&module, func, ctx, &aa, &dd));
                accesses.push(aa);
                deps.push(dd);
                trips.push(tt);
            }
            App {
                module,
                wpst,
                profile,
                accesses,
                deps,
                trips,
                prints,
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
                    prints: &self.prints[f.index()],
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
        assert!(res.stats.configs_considered > 0);
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
    fn best_under_on_an_empty_front_returns_the_empty_solution() {
        let res = SelectionResult {
            pareto: Vec::new(),
            visited: 0,
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
        assert_eq!(warm.stats.configs_considered, cold.stats.configs_considered);
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
