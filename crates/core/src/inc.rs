//! Incremental re-analysis: content-keyed queries with dirty tracking.
//!
//! [`Application::analyse_with`] is no longer a monolithic batch pipeline —
//! it is an *assembly* over keyed queries, each memoised in one table of a
//! query store:
//!
//! | query | key | value |
//! |---|---|---|
//! | verify | raw module fp | () |
//! | normalize | (raw fn fp, arrays fp, level, verify-each) | normalized `Function` + stats |
//! | shadow | (normalized fn fp, arrays fp) | address-canonicalized `Function` |
//! | structure | normalized fn fp | `FuncCtx` + `RegionTree` |
//! | decode | (normalized fn fp, arrays fp) | decoded interpreter function |
//! | exec | (normalized module fp, memory fp) | `ExecProfile` |
//! | dataflow | (analysis fn fp, arrays fp) | accesses + loop deps |
//! | trips | (normalized fn fp, arrays fp, block-count fp) | trip counts |
//! | app | (raw module fp, memory fp, analyse opts) | `Arc<Application>` |
//! | select | (app key, model fp, α, prune) | `Arc<SelectionResult>` |
//!
//! Every table is probed at one site, which counts the hit or miss into
//! [`IncStats`] and opens the `inc.query.<kind>` trace span tagged
//! `hit = true|false`; a miss runs the query body under that span, so the
//! queries it runs in turn nest beneath it.
//!
//! At `-O2` the *executed* module is still normalized at `-O1` — structure,
//! decode, exec and trips all key off the `-O1` fingerprints, so profiles
//! and observable behavior are bit-identical across the two levels and
//! those caches are shared between them. The extra **shadow** query runs
//! [`PassManager::address_canon`] (strength reduction + LICM, `InstrId`-
//! and CFG-preserving) over a clone of each normalized function; the
//! dataflow query then analyses the shadow, and its facts map back onto the
//! executed body by instruction id. A function's *analysis fingerprint* is
//! its `-O1` fingerprint when canonicalization was a no-op (sharing the
//! dataflow cache with `-O1`), otherwise a mix of the `-O1` and shadow
//! fingerprints — design caches and selection fronts absorb the extra
//! precision through the same content keys as any other edit.
//!
//! Keys are **content fingerprints** ([`cayman_ir::fingerprint_function`]
//! and friends), not revision counters: dirtiness is implicit — an edit
//! changes exactly the fingerprints of what it touched, so the next
//! assembly re-executes exactly the queries whose inputs changed and
//! answers everything else from cache. Content addressing also gives the
//! salsa-style "change it back" green path for free: reverting an edit
//! restores the old fingerprints and every query (including the whole-app
//! and selection queries) hits outright.
//!
//! [`IncrementalApp`] owns a raw module, a memory image and a store, takes
//! [`Edit`]s, and maintains the per-function raw fingerprints incrementally
//! — `apply` re-hashes only the touched function, which is the explicit
//! dirty mark on the wPST spine (the root's child subtree for that
//! function plus the whole-module exec/app/select keys above it). On the
//! next [`IncrementalApp::select`], clean root subtrees are answered from
//! the store's table of per-function subtree fronts (keyed by
//! [`FrontKey`]; `accel(v, R)` design vectors come from the sharded
//! [`DesignCache`]), and only the dirty spine is re-folded.
//!
//! Every result is bit-identical to a from-scratch `analyse → select` at
//! every step; `cayman-bench`'s differential and fuzz gates pin this over
//! the whole workload corpus.

use crate::app::{AnalyseOptions, Application};
use crate::CaymanError;
use cayman_analysis::access::{trip_count, AccessAnalysis};
use cayman_analysis::ctx::FuncCtx;
use cayman_analysis::memdep::{analyse_loop_deps, LoopDeps};
use cayman_analysis::profile::Profile;
use cayman_analysis::regions::RegionTree;
use cayman_analysis::scev::Scev;
use cayman_analysis::wpst::Wpst;
use cayman_ir::fingerprint::fnv1a_u64s;
use cayman_ir::interp::{DecodedFunction, ExecProfile, Interp, Memory};
use cayman_ir::transform::{normalize_function, OptLevel, PassManager, PipelineStats};
use cayman_ir::verify::VerifyError;
use cayman_ir::{
    decode_function, fingerprint_arrays, fingerprint_function, fingerprint_memory,
    fingerprint_module_from_parts, FuncId, Function, Instr, Module,
};
use cayman_obs::{ArgValue, Counter, SpanGuard};
use cayman_select::{
    run_selection, CaymanModel, DesignCache, FrontKey, SelectOptions, SelectionResult, Solution,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// Hit/miss counters for one query kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounter {
    /// Executions answered from cache.
    pub hits: u64,
    /// Executions that ran the query body.
    pub misses: u64,
}

/// Per-query-kind hit/miss accounting plus edit counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncStats {
    /// Whole-module verification query.
    pub verify: QueryCounter,
    /// Per-function normalization query.
    pub normalize: QueryCounter,
    /// Per-function address-canonicalization shadow query (`-O2` only).
    pub shadow: QueryCounter,
    /// Per-function CFG/dominator/region-structure query.
    pub structure: QueryCounter,
    /// Per-function interpreter-decode query.
    pub decode: QueryCounter,
    /// Whole-module profiled-execution query.
    pub exec: QueryCounter,
    /// Per-function access/dependence-analysis query.
    pub dataflow: QueryCounter,
    /// Per-function trip-count query.
    pub trips: QueryCounter,
    /// Whole-application assembly query.
    pub app: QueryCounter,
    /// Whole-selection query.
    pub select: QueryCounter,
    /// Edits applied so far.
    pub edits: u64,
}

/// Process-scope `[hits, misses]` counter names per query kind, in
/// [`IncStats::kinds`] order.
const QUERY_COUNTERS: [[&str; 2]; 10] = [
    ["inc.query.verify.hits", "inc.query.verify.misses"],
    ["inc.query.normalize.hits", "inc.query.normalize.misses"],
    ["inc.query.shadow.hits", "inc.query.shadow.misses"],
    ["inc.query.structure.hits", "inc.query.structure.misses"],
    ["inc.query.decode.hits", "inc.query.decode.misses"],
    ["inc.query.exec.hits", "inc.query.exec.misses"],
    ["inc.query.dataflow.hits", "inc.query.dataflow.misses"],
    ["inc.query.trips.hits", "inc.query.trips.misses"],
    ["inc.query.app.hits", "inc.query.app.misses"],
    ["inc.query.select.hits", "inc.query.select.misses"],
];

impl IncStats {
    /// Every query kind, in [`QUERY_COUNTERS`] order.
    fn kinds(&self) -> [QueryCounter; 10] {
        [
            self.verify,
            self.normalize,
            self.shadow,
            self.structure,
            self.decode,
            self.exec,
            self.dataflow,
            self.trips,
            self.app,
            self.select,
        ]
    }
}

/// One memoised query kind: content key → shared result.
struct Query<K, V> {
    /// The `inc.query.<kind>` span name.
    span: &'static str,
    map: HashMap<K, Arc<V>>,
}

impl<K: Eq + Hash, V> Query<K, V> {
    fn new(span: &'static str) -> Self {
        Query {
            span,
            map: HashMap::new(),
        }
    }

    /// The one probe site of every query: counts the hit or miss into
    /// `counter`, opens the query's span tagged `hit` (plus `arg`: the
    /// function index or count), and on a miss runs `body` under that span
    /// and memoises its result.
    fn get(
        &mut self,
        key: K,
        counter: &mut QueryCounter,
        arg: Option<(&'static str, usize)>,
        body: impl FnOnce() -> Result<V, CaymanError>,
    ) -> Result<Arc<V>, CaymanError> {
        let hit = self.map.get(&key).cloned();
        let _q = if cayman_obs::enabled() {
            let mut args = vec![("hit", ArgValue::Bool(hit.is_some()))];
            args.extend(arg.map(|(name, v)| (name, ArgValue::from(v))));
            SpanGuard::enter_with(self.span, args)
        } else {
            SpanGuard::noop()
        };
        if let Some(hit) = hit {
            counter.hits += 1;
            return Ok(hit);
        }
        counter.misses += 1;
        let value = Arc::new(body()?);
        self.map.insert(key, Arc::clone(&value));
        Ok(value)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NormKey {
    raw_fp: u64,
    arrays_fp: u64,
    level: OptLevel,
    verify_each: bool,
}

struct NormResult {
    func: Function,
    norm_fp: u64,
    stats: PipelineStats,
}

/// A per-function key: one function fingerprint (normalized for shadow and
/// decode, the analysis fingerprint for dataflow) under the module's array
/// declarations.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FuncKey {
    fp: u64,
    arrays_fp: u64,
}

struct ShadowResult {
    /// The address-canonicalized clone of the normalized function. Same
    /// `InstrId`s/`ValueId`s/blocks/terminators as the executed body.
    func: Function,
    shadow_fp: u64,
    stats: PipelineStats,
}

struct FuncStructure {
    ctx: FuncCtx,
    tree: RegionTree,
}

struct FuncDataflow {
    accesses: AccessAnalysis,
    deps: Vec<LoopDeps>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ExecKey {
    norm_module_fp: u64,
    memory_fp: u64,
}

struct ExecResult {
    exec: ExecProfile,
    engine: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TripsKey {
    norm_fp: u64,
    arrays_fp: u64,
    bc_fp: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AppKey {
    module_fp: u64,
    memory_fp: u64,
    level: OptLevel,
    verify_each: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct SelectKey {
    app: AppKey,
    model_fp: u64,
    alpha_bits: u64,
    prune_bits: u64,
}

/// All memoised query results. One store serves one logical application
/// across any number of edits — every key is content-derived, so stale
/// entries are merely unreachable, never wrong.
pub(crate) struct QueryStore {
    verified: Query<u64, ()>,
    normalize: Query<NormKey, NormResult>,
    shadow: Query<FuncKey, ShadowResult>,
    structure: Query<u64, FuncStructure>,
    decode: Query<FuncKey, Option<DecodedFunction>>,
    exec: Query<ExecKey, ExecResult>,
    dataflow: Query<FuncKey, FuncDataflow>,
    trips: Query<TripsKey, Vec<f64>>,
    apps: Query<AppKey, Application>,
    selections: Query<SelectKey, SelectionResult>,
    /// Memoised `accel(v, R)` design vectors, shared across edits (keys
    /// carry the function content fingerprint).
    designs: DesignCache,
    /// Memoised per-function-subtree Pareto fronts, read and extended by
    /// [`run_selection`].
    fronts: HashMap<FrontKey, Vec<Solution>>,
    /// Hit/miss accounting.
    stats: IncStats,
    /// `stats` as of the last [`QueryStore::publish`].
    published: IncStats,
}

impl QueryStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        QueryStore {
            verified: Query::new("inc.query.verify"),
            normalize: Query::new("inc.query.normalize"),
            shadow: Query::new("inc.query.shadow"),
            structure: Query::new("inc.query.structure"),
            decode: Query::new("inc.query.decode"),
            exec: Query::new("inc.query.exec"),
            dataflow: Query::new("inc.query.dataflow"),
            trips: Query::new("inc.query.trips"),
            apps: Query::new("inc.query.app"),
            selections: Query::new("inc.query.select"),
            designs: DesignCache::new(),
            fronts: HashMap::new(),
            stats: IncStats::default(),
            published: IncStats::default(),
        }
    }

    /// Adds everything counted since the last call to the process-scope
    /// `inc.*` counters. Called once at the end of each analysis or
    /// selection run, never per query.
    pub(crate) fn publish(&mut self) {
        static TOTALS: OnceLock<([[&Counter; 2]; 10], &Counter)> = OnceLock::new();
        let (queries, edits) = TOTALS.get_or_init(|| {
            let counter = cayman_obs::registry::counter;
            (QUERY_COUNTERS.map(|n| n.map(counter)), counter("inc.edits"))
        });
        let kinds = self.stats.kinds().into_iter().zip(self.published.kinds());
        for ([hits, misses], (now, was)) in queries.iter().zip(kinds) {
            hits.add(now.hits - was.hits);
            misses.add(now.misses - was.misses);
        }
        edits.add(self.stats.edits - self.published.edits);
        self.published = self.stats;
    }
}

/// Assembles a fully analysed [`Application`] over `store`'s queries and
/// returns it with the app key it was memoised under.
///
/// `raw_fps` must be the per-function content fingerprints of `module`'s
/// (pre-normalization) functions — [`IncrementalApp`] maintains them
/// incrementally across edits; the batch path hashes them fresh.
pub(crate) fn assemble(
    store: &mut QueryStore,
    module: &Module,
    memory: Option<&Memory>,
    memory_fp: u64,
    opts: &AnalyseOptions,
    raw_fps: &[u64],
) -> Result<(AppKey, Arc<Application>), CaymanError> {
    let arrays_fp = fingerprint_arrays(&module.arrays);
    let module_fp = fingerprint_module_from_parts(&module.name, raw_fps, arrays_fp);
    let app_key = AppKey {
        module_fp,
        memory_fp,
        level: opts.opt_level,
        verify_each: opts.verify_each_pass,
    };
    let functions = Some(("functions", module.functions.len()));
    let counts = &mut store.stats;
    let app = store.apps.get(app_key, &mut counts.app, functions, || {
        // Stage 1: verify (whole-module; a hit means this exact raw content
        // already verified clean).
        {
            let _s = cayman_obs::span!("analyse.verify");
            store
                .verified
                .get(module_fp, &mut counts.verify, None, || Ok(module.verify()?))?;
        }

        // Stage 2: normalize, one keyed query per function. `-O2` *executes*
        // the `-O1` body (the extra canonicalization lives in analysis
        // shadows, stage 2b), so the normalize/structure/decode/exec caches
        // are shared between the two levels and observable behavior is
        // bit-identical.
        let exec_level = match opts.opt_level {
            OptLevel::O2 => OptLevel::O1,
            lvl => lvl,
        };
        let mut working = module.clone();
        let mut norm_fps: Vec<u64> = Vec::with_capacity(working.functions.len());
        let mut normalize_stats = PipelineStats::default();
        {
            let _s = cayman_obs::span!("analyse.normalize");
            if exec_level == OptLevel::O0 {
                norm_fps.extend_from_slice(raw_fps);
            } else {
                for f in module.function_ids() {
                    let key = NormKey {
                        raw_fp: raw_fps[f.index()],
                        arrays_fp,
                        level: exec_level,
                        verify_each: opts.verify_each_pass,
                    };
                    let arg = Some(("func", f.index()));
                    let cached = store.normalize.get(key, &mut counts.normalize, arg, || {
                        let stats =
                            normalize_function(&mut working, f, exec_level, opts.verify_each_pass)?;
                        let func = working.functions[f.index()].clone();
                        let norm_fp = fingerprint_function(&func);
                        Ok(NormResult {
                            func,
                            norm_fp,
                            stats,
                        })
                    })?;
                    working.functions[f.index()] = cached.func.clone();
                    norm_fps.push(cached.norm_fp);
                    normalize_stats.merge(&cached.stats);
                }
            }
        }
        let norm_module_fp = fingerprint_module_from_parts(&working.name, &norm_fps, arrays_fp);

        // Stage 2b (`-O2` only): per-function address-canonicalization
        // shadows. The shadow never executes — verification happens on the
        // whole module in stage 1, and `address_canon`'s identity contract
        // (pinned by the workload differential suite) keeps every
        // memory/phi/call instruction in place — so the query runs on a
        // single-function clone.
        let mut shadows: Vec<Option<Arc<ShadowResult>>> = vec![None; working.functions.len()];
        let mut analysis_fps = norm_fps.clone();
        if opts.opt_level == OptLevel::O2 {
            let _s = cayman_obs::span!("analyse.shadow");
            for f in working.function_ids() {
                let key = FuncKey {
                    fp: norm_fps[f.index()],
                    arrays_fp,
                };
                let arg = Some(("func", f.index()));
                let cached = store.shadow.get(key, &mut counts.shadow, arg, || {
                    let mut tmp = Module {
                        name: working.name.clone(),
                        functions: vec![working.functions[f.index()].clone()],
                        arrays: working.arrays.clone(),
                    };
                    let stats = PassManager::address_canon()
                        .run_function(&mut tmp, FuncId(0))
                        .expect("address_canon never verifies, so never fails");
                    let func = tmp.functions.pop().expect("one function");
                    let shadow_fp = fingerprint_function(&func);
                    Ok(ShadowResult {
                        func,
                        shadow_fp,
                        stats,
                    })
                })?;
                normalize_stats.merge(&cached.stats);
                if cached.shadow_fp != norm_fps[f.index()] {
                    // Analysis facts now depend on both bodies: the executed
                    // `-O1` one (schedules, profiles) and the shadow (SCEV).
                    analysis_fps[f.index()] = fnv1a_u64s(&[norm_fps[f.index()], cached.shadow_fp]);
                }
                shadows[f.index()] = Some(cached);
            }
        }

        // Stage 3: profile — wPST from per-function structure queries, then
        // the whole-module execution query.
        let (wpst, exec_res, profile) = {
            let _s = cayman_obs::span!("analyse.profile");
            let mut trees = Vec::with_capacity(working.functions.len());
            let mut ctxs = Vec::with_capacity(working.functions.len());
            for f in working.function_ids() {
                let key = norm_fps[f.index()];
                let arg = Some(("func", f.index()));
                let parts = store.structure.get(key, &mut counts.structure, arg, || {
                    let func = working.function(f);
                    let ctx = FuncCtx::compute(func);
                    let tree = RegionTree::build(func, &ctx);
                    Ok(FuncStructure { ctx, tree })
                })?;
                trees.push(parts.tree.clone());
                ctxs.push(parts.ctx.clone());
            }
            let wpst = Wpst::from_parts(trees, ctxs);

            let exec_key = ExecKey {
                norm_module_fp,
                memory_fp,
            };
            let exec_res = store.exec.get(exec_key, &mut counts.exec, None, || {
                // Decode is only needed to execute, so its per-function
                // queries run lazily inside the exec miss.
                let mut decoded = Vec::with_capacity(working.functions.len());
                for f in working.function_ids() {
                    let key = FuncKey {
                        fp: norm_fps[f.index()],
                        arrays_fp,
                    };
                    let arg = Some(("func", f.index()));
                    let d = store.decode.get(key, &mut counts.decode, arg, || {
                        Ok(decode_function(&working, f))
                    })?;
                    decoded.push((*d).clone());
                }
                let mut interp = Interp::from_cached_decode(&working, decoded);
                let engine = interp.engine_name();
                if let Some(mem) = memory {
                    interp.memory = mem.clone();
                }
                let exec = interp.run(&[])?;
                Ok(ExecResult { exec, engine })
            })?;
            let profile = Profile::aggregate(&working, &wpst, &exec_res.exec);
            (wpst, exec_res, profile)
        };

        // Stage 4: analyse — per-function dataflow and trip-count queries.
        let mut accesses = Vec::with_capacity(working.functions.len());
        let mut deps = Vec::with_capacity(working.functions.len());
        let mut trips = Vec::with_capacity(working.functions.len());
        {
            let _s = cayman_obs::span!("analyse.dataflow");
            for f in working.function_ids() {
                let func = working.function(f);
                let ctx = &wpst.func_ctxs[f.index()];
                let arg = Some(("func", f.index()));
                let dkey = FuncKey {
                    fp: analysis_fps[f.index()],
                    arrays_fp,
                };
                let df = store.dataflow.get(dkey, &mut counts.dataflow, arg, || {
                    // At `-O2` with a changed shadow, analyse the shadow:
                    // identical CFG/loops (so `LoopId`s/`InstrId`s map back
                    // onto the executed body), but hoisted + strength-reduced
                    // address arithmetic that SCEV can linearize. The shadow
                    // moves pure ops between blocks, so it needs its own
                    // instruction→block snapshot.
                    let shadow_ctx;
                    let (afunc, actx) = match shadows[f.index()].as_deref() {
                        Some(s) if s.shadow_fp != norm_fps[f.index()] => {
                            shadow_ctx = FuncCtx::compute(&s.func);
                            (&s.func, &shadow_ctx)
                        }
                        _ => (func, ctx),
                    };
                    let mut scev = Scev::new(afunc, actx);
                    let accesses = AccessAnalysis::run(&working, afunc, actx, &mut scev);
                    let deps = analyse_loop_deps(afunc, actx, &mut scev, &accesses);
                    Ok(FuncDataflow { accesses, deps })
                })?;
                let tkey = TripsKey {
                    norm_fp: norm_fps[f.index()],
                    arrays_fp,
                    bc_fp: fnv1a_u64s(&profile.block_counts[f.index()]),
                };
                let tt = store.trips.get(tkey, &mut counts.trips, arg, || {
                    Ok(ctx
                        .forest
                        .ids()
                        .map(|l| trip_count(&wpst, &profile, func, f, l).unwrap_or(1.0))
                        .collect())
                })?;
                accesses.push(df.accesses.clone());
                deps.push(df.deps.clone());
                trips.push((*tt).clone());
            }
        }

        Ok(Application {
            module: working,
            wpst,
            profile,
            exec: exec_res.exec.clone(),
            accesses,
            deps,
            trips,
            profiling_engine: exec_res.engine,
            normalize_stats,
            content_fps: analysis_fps,
        })
    })?;
    Ok((app_key, app))
}

/// One edit against an [`IncrementalApp`]'s raw module.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Replace the body of an existing function.
    ReplaceFunction {
        /// Which function.
        func: FuncId,
        /// The new body (verified on the next analyse).
        body: Function,
    },
    /// Append a new function (it gets the next [`FuncId`]).
    AddFunction {
        /// The new function.
        body: Function,
    },
    /// Remove a function nothing calls; later functions are renumbered and
    /// callers of renumbered ids are rewritten (and thereby marked dirty).
    RemoveFunction {
        /// Which function.
        func: FuncId,
    },
    /// Re-normalize the whole application at a different level.
    SetOptLevel(OptLevel),
}

/// An application under edits: a raw module + memory image + query store.
///
/// `apply` is cheap — it mutates the raw module and re-fingerprints only
/// the touched functions. `analyse` and `select` then re-execute only the
/// queries whose keys changed; see the module docs for the full table.
pub struct IncrementalApp {
    module: Module,
    memory: Option<Memory>,
    memory_fp: u64,
    opts: AnalyseOptions,
    raw_fps: Vec<u64>,
    store: QueryStore,
}

impl IncrementalApp {
    /// Wraps a raw (pre-normalization) module with an empty store.
    pub fn new(module: Module, memory: Option<Memory>, opts: AnalyseOptions) -> Self {
        let raw_fps = module.functions.iter().map(fingerprint_function).collect();
        let memory_fp = memory.as_ref().map(fingerprint_memory).unwrap_or(0);
        IncrementalApp {
            module,
            memory,
            memory_fp,
            opts,
            raw_fps,
            store: QueryStore::new(),
        }
    }

    /// The current raw module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The current analyse options.
    pub fn options(&self) -> &AnalyseOptions {
        &self.opts
    }

    /// Query hit/miss accounting so far.
    pub fn stats(&self) -> &IncStats {
        &self.store.stats
    }

    /// Applies one edit. Only the touched functions are re-fingerprinted.
    ///
    /// # Errors
    ///
    /// `ReplaceFunction` and `RemoveFunction` fail when `func` is not a
    /// function of the module, and `RemoveFunction` fails when another
    /// function still calls the target; both leave the module untouched.
    pub fn apply(&mut self, edit: Edit) -> Result<(), CaymanError> {
        let len = self.module.functions.len();
        if let Edit::ReplaceFunction { func, .. } | Edit::RemoveFunction { func } = &edit {
            if func.index() >= len {
                let message = format!("`{}` has only {len} functions", self.module.name);
                let func = func.to_string();
                return Err(CaymanError::Verify(VerifyError { func, message }));
            }
        }
        match edit {
            Edit::ReplaceFunction { func, body } => {
                self.raw_fps[func.index()] = fingerprint_function(&body);
                self.module.functions[func.index()] = body;
            }
            Edit::AddFunction { body } => {
                self.raw_fps.push(fingerprint_function(&body));
                self.module.functions.push(body);
            }
            Edit::RemoveFunction { func } => {
                for (i, caller) in self.module.functions.iter().enumerate() {
                    if i == func.index() {
                        continue;
                    }
                    let calls_target = caller
                        .instrs
                        .iter()
                        .any(|ins| matches!(ins, Instr::Call { callee, .. } if *callee == func));
                    if calls_target {
                        return Err(CaymanError::Verify(VerifyError {
                            func: caller.name.clone(),
                            message: format!(
                                "cannot remove `{}`: still called",
                                self.module.functions[func.index()].name
                            ),
                        }));
                    }
                }
                self.module.functions.remove(func.index());
                self.raw_fps.remove(func.index());
                // Renumber call targets above the removed id; the rewrite
                // changes those callers' content, which re-fingerprints them
                // (the content-addressed dirty mark).
                for (i, caller) in self.module.functions.iter_mut().enumerate() {
                    let mut changed = false;
                    for ins in &mut caller.instrs {
                        if let Instr::Call { callee, .. } = ins {
                            if *callee > func {
                                *callee = FuncId(callee.0 - 1);
                                changed = true;
                            }
                        }
                    }
                    if changed {
                        self.raw_fps[i] = fingerprint_function(caller);
                    }
                }
            }
            Edit::SetOptLevel(level) => {
                self.opts.opt_level = level;
            }
        }
        self.store.stats.edits += 1;
        Ok(())
    }

    /// Replaces the profiling memory image (re-fingerprinted once, here).
    pub fn set_memory(&mut self, memory: Option<Memory>) {
        self.memory_fp = memory.as_ref().map(fingerprint_memory).unwrap_or(0);
        self.memory = memory;
    }

    /// Analyses the current module state, reusing every clean query.
    ///
    /// # Errors
    ///
    /// Fails when verification or profiled execution fails; the store keeps
    /// all previous results, so a failing edit can be reverted and
    /// re-analysed at full cache warmth.
    pub fn analyse(&mut self) -> Result<Arc<Application>, CaymanError> {
        Ok(self.analyse_keyed()?.1)
    }

    /// [`IncrementalApp::analyse`], also returning the app key.
    fn analyse_keyed(&mut self) -> Result<(AppKey, Arc<Application>), CaymanError> {
        let res = assemble(
            &mut self.store,
            &self.module,
            self.memory.as_ref(),
            self.memory_fp,
            &self.opts,
            &self.raw_fps,
        );
        self.store.publish();
        res
    }

    /// Analyses and selects, reusing cached designs and per-function
    /// subtree fronts for clean wPST subtrees.
    ///
    /// The selection key ignores `opts.threads` (the front is
    /// thread-invariant); a re-selection runs the engine `opts.threads`
    /// picks, and both engines answer clean functions from the front table.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`IncrementalApp::analyse`].
    pub fn select(&mut self, opts: &SelectOptions) -> Result<Arc<SelectionResult>, CaymanError> {
        let (app_key, app) = self.analyse_keyed()?;
        let key = SelectKey {
            app: app_key,
            model_fp: opts.model.fingerprint(),
            alpha_bits: opts.alpha.to_bits(),
            prune_bits: opts.prune_share.to_bits(),
        };
        let store = &mut self.store;
        let result = store
            .selections
            .get(key, &mut store.stats.select, None, || {
                Ok(run_selection(
                    &app.module,
                    &app.wpst,
                    &app.profile,
                    &app.inputs(),
                    opts,
                    &CaymanModel(opts.model.clone()),
                    &store.designs,
                    Some(&mut store.fronts),
                ))
            });
        store.publish();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::instr::{Imm, Operand};
    use cayman_ir::Type;

    /// Two independent streaming kernels plus a caller — enough structure
    /// for per-function queries to show selective invalidation.
    fn two_kernel_module() -> Module {
        let mut mb = ModuleBuilder::new("inc");
        let x = mb.array("x", Type::F64, &[32]);
        let y = mb.array("y", Type::F64, &[32]);
        let ka = mb.function("ka", &[], None, |fb| {
            fb.counted_loop(0, 32, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                let w = fb.fmul(v, fb.fconst(2.0));
                fb.store_idx(x, &[i], w);
            });
            fb.ret(None);
        });
        let kb = mb.function("kb", &[], None, |fb| {
            fb.counted_loop(0, 32, 1, |fb, i| {
                let v = fb.load_idx(y, &[i]);
                let w = fb.fadd(v, fb.fconst(1.0));
                fb.store_idx(y, &[i], w);
            });
            fb.ret(None);
        });
        mb.function("main", &[], None, |fb| {
            fb.call(ka, &[], None);
            fb.call(kb, &[], None);
            fb.ret(None);
        });
        mb.finish()
    }

    /// `ka` with its multiplier constant nudged — a single-instruction edit.
    fn edited_ka(m: &Module) -> Function {
        let mut body = m.functions[0].clone();
        let mut edited = false;
        'outer: for instr in &mut body.instrs {
            if let Instr::Binary { lhs, rhs, .. } = instr {
                for op in [&mut *lhs, rhs] {
                    if let Operand::Const(Imm::Float(v)) = op {
                        *op = Operand::float(*v + 0.5);
                        edited = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(edited, "ka has a float immediate");
        body
    }

    fn fronts_bits(sel: &SelectionResult) -> Vec<(u64, u64, usize)> {
        sel.pareto
            .iter()
            .map(|s| (s.area.to_bits(), s.saved_seconds.to_bits(), s.kernels.len()))
            .collect()
    }

    #[test]
    fn incremental_matches_batch_bit_for_bit() {
        let m = two_kernel_module();
        let batch = Application::analyse(m.clone()).expect("batch analyses");
        let mut inc = IncrementalApp::new(m, None, AnalyseOptions::default());
        let app = inc.analyse().expect("incremental analyses");
        assert_eq!(app.module.to_text(), batch.module.to_text());
        assert_eq!(app.content_fps, batch.content_fps);
        assert_eq!(app.profile.block_counts, batch.profile.block_counts);
        assert_eq!(app.profile.total_cycles, batch.profile.total_cycles);
        assert_eq!(app.trips, batch.trips);
        assert_eq!(app.profiling_engine, batch.profiling_engine);

        let batch_inputs = batch.inputs();
        let batch_sel = run_selection(
            &batch.module,
            &batch.wpst,
            &batch.profile,
            &batch_inputs,
            &SelectOptions::default(),
            &CaymanModel::default(),
            &DesignCache::new(),
            None,
        );
        let inc_sel = inc.select(&SelectOptions::default()).expect("selects");
        assert_eq!(fronts_bits(&inc_sel), fronts_bits(&batch_sel));
    }

    #[test]
    fn single_edit_reuses_clean_function_queries() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        inc.select(&SelectOptions::default()).expect("cold select");
        let cold = *inc.stats();
        assert_eq!(cold.normalize.misses, 3, "three functions normalized");

        // Edit one function: the two clean functions answer from cache.
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: edited_ka(&m),
        })
        .expect("applies");
        let res = inc.select(&SelectOptions::default()).expect("re-select");
        let warm = *inc.stats();
        assert_eq!(warm.edits, 1);
        assert_eq!(
            warm.normalize.misses - cold.normalize.misses,
            1,
            "only the edited function re-normalizes"
        );
        assert_eq!(warm.normalize.hits - cold.normalize.hits, 2);
        assert_eq!(warm.dataflow.misses - cold.dataflow.misses, 1);
        // The module's dynamic behaviour changed, so execution re-runs...
        assert_eq!(warm.exec.misses - cold.exec.misses, 1);
        // ...but clean functions' decoded bodies are reused.
        assert_eq!(warm.decode.hits - cold.decode.hits, 2);
        assert_eq!(warm.app.misses - cold.app.misses, 1);
        assert_eq!(warm.select.misses - cold.select.misses, 1);
        // Clean sibling subtrees answer selection from the front table.
        assert!(res.stats.front_hits > 0, "clean subtree fronts reused");
    }

    #[test]
    fn threaded_reselection_matches_sequential_and_reuses_fronts_alike() {
        let m = two_kernel_module();
        // One app per thread budget, both driven through the same edit.
        let run = |threads: usize| {
            let opts = SelectOptions {
                threads,
                ..Default::default()
            };
            let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
            inc.select(&opts).expect("cold select");
            inc.apply(Edit::ReplaceFunction {
                func: FuncId(0),
                body: edited_ka(&m),
            })
            .expect("applies");
            let sel = inc.select(&opts).expect("re-select");
            let engine = if threads > 1 { "steal" } else { "seq" };
            assert_eq!(sel.stats.scheduler, engine);
            (
                fronts_bits(&sel),
                sel.stats.front_hits,
                sel.stats.front_misses,
            )
        };
        let (seq_front, seq_hits, seq_misses) = run(1);
        let (par_front, par_hits, par_misses) = run(8);
        assert_eq!(par_front, seq_front);
        assert!(
            seq_hits > 0,
            "clean functions answered from the front table"
        );
        assert_eq!((par_hits, par_misses), (seq_hits, seq_misses));
    }

    #[test]
    fn reverting_an_edit_hits_every_cache() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let first = inc.select(&SelectOptions::default()).expect("cold");
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: edited_ka(&m),
        })
        .expect("applies");
        inc.select(&SelectOptions::default()).expect("edited");
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: m.functions[0].clone(),
        })
        .expect("reverts");
        let before = *inc.stats();
        let reverted = inc.select(&SelectOptions::default()).expect("reverted");
        let after = *inc.stats();
        // The salsa-style green path: content keys match the original state,
        // so both the whole-app and the selection query hit outright.
        assert_eq!(after.app.hits - before.app.hits, 1);
        assert_eq!(after.select.hits - before.select.hits, 1);
        assert_eq!(after.app.misses, before.app.misses);
        assert!(
            Arc::ptr_eq(&first, &reverted),
            "reverted selection is the cached original"
        );
    }

    #[test]
    fn remove_function_renumbers_callers_and_rejects_live_targets() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        // ka is still called from main: removal must be rejected untouched.
        let err = inc.apply(Edit::RemoveFunction { func: FuncId(0) });
        assert!(err.is_err(), "live function cannot be removed");
        assert_eq!(inc.module().functions.len(), 3);

        // A module whose first function is genuinely dead: removal must
        // renumber kb and rewrite main's call target (marking main dirty).
        let mut mb = ModuleBuilder::new("inc2");
        let y = mb.array("y", Type::F64, &[32]);
        let dead = mb.function("dead", &[], None, |fb| {
            fb.ret(None);
        });
        let kb = mb.function("kb", &[], None, |fb| {
            fb.counted_loop(0, 32, 1, |fb, i| {
                let v = fb.load_idx(y, &[i]);
                let w = fb.fadd(v, fb.fconst(1.0));
                fb.store_idx(y, &[i], w);
            });
            fb.ret(None);
        });
        mb.function("main", &[], None, |fb| {
            fb.call(kb, &[], None);
            fb.ret(None);
        });
        let _ = dead;
        let m2 = mb.finish();
        let mut inc2 = IncrementalApp::new(m2, None, AnalyseOptions::default());
        inc2.apply(Edit::RemoveFunction { func: FuncId(0) })
            .expect("dead function removes");
        assert_eq!(inc2.module().functions.len(), 2);
        assert_eq!(inc2.module().functions[0].name, "kb");
        let app = inc2.analyse().expect("renumbered module analyses");
        assert_eq!(app.module.functions.len(), 2);
        assert!(app.total_cycles() > 0);
    }

    #[test]
    fn out_of_range_function_edits_are_rejected_untouched() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let missing = FuncId(3);
        let replace = inc.apply(Edit::ReplaceFunction {
            func: missing,
            body: m.functions[0].clone(),
        });
        assert!(
            matches!(replace, Err(CaymanError::Verify(_))),
            "{replace:?}"
        );
        let remove = inc.apply(Edit::RemoveFunction { func: missing });
        assert!(matches!(remove, Err(CaymanError::Verify(_))), "{remove:?}");
        assert_eq!(inc.module().to_text(), m.to_text());
        assert_eq!(inc.stats().edits, 0);
        let app = inc.analyse().expect("untouched module analyses");
        assert_eq!(app.module.functions.len(), 3);
    }

    /// A kernel whose address arithmetic hides its stream-ness from `-O1`:
    /// the base offset is an opaque (load-derived) but loop-invariant
    /// product computed *inside* the loop, so only the `-O2` shadow's LICM
    /// moves the symbol definition out of the region and lets
    /// [`AccessInfo::is_stream_within`] prove the access a stream.
    fn invariant_product_module() -> Module {
        let mut mb = ModuleBuilder::new("o2");
        let dims = mb.array("dims", Type::I64, &[2]);
        let x = mb.array("x", Type::F64, &[64]);
        let y = mb.array("y", Type::F64, &[64]);
        mb.function("main", &[], None, |fb| {
            let zero = fb.iconst(0);
            let one = fb.iconst(1);
            let a = fb.load_idx_ty(dims, &[zero], Type::I64);
            let b = fb.load_idx_ty(dims, &[one], Type::I64);
            fb.counted_loop(0, 8, 1, |fb, i| {
                let base = fb.mul(a, b); // invariant, but defined in-loop
                let idx = fb.add(base, i);
                let v = fb.load_idx(x, &[idx]);
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn o2_shares_execution_with_o1_and_shadows_analysis() {
        let m = invariant_product_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let o1 = inc.analyse().expect("O1 analyses");
        assert_eq!(inc.stats().shadow.misses, 0, "no shadows at O1");

        inc.apply(Edit::SetOptLevel(OptLevel::O2)).expect("applies");
        let o2 = inc.analyse().expect("O2 analyses");
        // The executed body is the -O1 one: normalization and execution are
        // answered from the O1 run's caches, bit-identically.
        assert_eq!(inc.stats().normalize.hits, 1, "O1 normalize reused");
        assert_eq!(inc.stats().exec.hits, 1, "O1 execution reused");
        assert_eq!(o1.module.to_text(), o2.module.to_text());
        assert_eq!(o1.profile.block_counts, o2.profile.block_counts);
        assert_eq!(o1.profile.total_cycles, o2.profile.total_cycles);
        assert_eq!(o1.exec.return_value, o2.exec.return_value);
        // ...but the shadow ran, changed the function, and re-keyed both the
        // dataflow query and the function's content fingerprint.
        assert_eq!(inc.stats().shadow.misses, 1, "one function shadowed");
        assert_ne!(o1.content_fps[0], o2.content_fps[0], "analysis fp mixed");
        assert_eq!(inc.stats().dataflow.misses, 2, "shadow dataflow re-ran");

        // LICM moved `a*b` out of the loop in the shadow, so the x-load is a
        // stream within the loop at -O2 but not at -O1.
        let l = o2.wpst.func_ctxs[0].forest.ids().next().expect("one loop");
        let blocks = o2.wpst.func_ctxs[0].forest.get(l).blocks.clone();
        let x_load_streams = |app: &Application| {
            app.accesses[0]
                .accesses
                .iter()
                .find(|a| !a.is_store && a.array.index() == 1)
                .expect("x load analysed")
                .is_stream_within(&blocks)
        };
        assert!(x_load_streams(&o2), "shadow proves the stream");
        assert!(!x_load_streams(&o1), "-O1 cannot prove it");

        // Round-tripping back to -O1 is a pure app-level cache hit.
        inc.apply(Edit::SetOptLevel(OptLevel::O1)).expect("applies");
        let before = *inc.stats();
        let o1b = inc.analyse().expect("O1 again");
        assert_eq!(inc.stats().app.hits - before.app.hits, 1);
        assert!(Arc::ptr_eq(&o1, &o1b));
    }

    #[test]
    fn o2_shadow_is_a_noop_on_canonical_functions() {
        // Builder-canonical kernels (plain `load_idx(x, &[i])`) have nothing
        // for the shadow to rewrite: analysis fingerprints stay the -O1
        // fingerprints and the dataflow cache is shared across levels.
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m, None, AnalyseOptions::default());
        let o1 = inc.analyse().expect("O1");
        let df_misses = inc.stats().dataflow.misses;
        inc.apply(Edit::SetOptLevel(OptLevel::O2)).expect("applies");
        let o2 = inc.analyse().expect("O2");
        assert_eq!(o1.content_fps, o2.content_fps, "no-op shadow keeps fps");
        assert_eq!(
            inc.stats().dataflow.misses,
            df_misses,
            "dataflow shared with O1"
        );
        assert_eq!(inc.stats().shadow.misses, 3);
    }

    #[test]
    fn set_opt_level_reanalyses_at_the_new_level() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m, None, AnalyseOptions::o0());
        let raw = inc.analyse().expect("O0 analyses");
        assert_eq!(raw.normalize_stats.iterations, 0);
        inc.apply(Edit::SetOptLevel(OptLevel::O1)).expect("applies");
        let opt = inc.analyse().expect("O1 analyses");
        assert!(opt.normalize_stats.total_changes() > 0 || opt.normalize_stats.iterations > 0);
        // Observable behaviour unchanged across levels.
        assert_eq!(raw.exec.return_value, opt.exec.return_value);
        // Going back to O0 is a pure cache hit.
        inc.apply(Edit::SetOptLevel(OptLevel::O0)).expect("applies");
        let before = *inc.stats();
        let raw2 = inc.analyse().expect("O0 again");
        assert_eq!(inc.stats().app.hits - before.app.hits, 1);
        assert!(Arc::ptr_eq(&raw, &raw2));
    }

    #[test]
    fn add_function_extends_the_application() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        inc.analyse().expect("analyses");
        inc.apply(Edit::AddFunction {
            body: m.functions[1].clone(),
        })
        .expect("applies");
        let app = inc.analyse().expect("re-analyses");
        assert_eq!(app.module.functions.len(), 4);
        assert_eq!(app.accesses.len(), 4);
        assert_eq!(app.content_fps.len(), 4);
    }
}
