//! Incremental re-analysis: content-keyed queries with dirty tracking.
//!
//! [`Application::analyse_with`] is no longer a monolithic batch pipeline —
//! it is an *assembly* over keyed queries, each memoised in one table of a
//! query store:
//!
//! | query | key | value |
//! |---|---|---|
//! | verify | raw module ints-print | () |
//! | normalize | (raw fn fp, arrays fp, verify-each) | normalized `Function` + its prints |
//! | shadow | (normalized fn fp, arrays fp) | address-canonicalized `Function` + its prints |
//! | structure | normalized fn ints-print | `Arc<FuncCtx>` + `Arc<RegionTree>` + structural prints |
//! | decode | (normalized fn fp, arrays fp) | decoded interpreter function |
//! | exec | (normalized module fp, memory fp) | `ExecProfile`, run or proved |
//! | dataflow | (analysis fn ints-print, arrays fp) | `Arc`ed accesses + loop deps + their prints |
//! | trips | (normalized fn ints-print, arrays fp, block-count fp) | trip counts |
//! | app | (raw module fp, memory fp, analyse opts) | `Arc<Application>` |
//! | select | (every root child's front key, model fp, α, prune) | `Arc<SelectionResult>` |
//! | front | (function vertex, selection fp, total cycles, model, α, prune) | folded function-subtree front |
//!
//! Every table but the last is probed at one site, which counts the hit or
//! miss into [`IncStats`] and opens the `inc.query.<kind>` trace span
//! tagged `hit = true|false`; a miss runs the query body under that span,
//! so the queries it runs in turn nest beneath it. The front table is read
//! and extended by [`run_selection`] inside a select miss, which counts its
//! hits and misses in `SelectStats`.
//!
//! Each query is keyed on the narrowest print that covers what it reads.
//! A *fp* ([`cayman_ir::fingerprint_function`]) hashes every immediate by
//! its bits: normalization, decode and execution read values. An
//! *ints-print* ([`FunctionFps::ints`], computed in the same walk) hashes
//! an integer immediate by value and a float or bool immediate by kind
//! only: the verifier, CFG and region structure, access and dependence
//! analysis and static trip counts read integer immediates at most (SCEV
//! and the access footprints), which `tests/analyses_read_ints.rs` checks
//! over the corpus. The last two keys do not hash the functions' bodies
//! at all. A function's *selection fp* ([`FuncPrints::selection_fp`])
//! folds what a selection reads about it: its value-blind block prints,
//! its loop and array prints, its block counts and its trip counts.
//!
//! So an edit that only changes a float or bool immediate re-runs the
//! edited function's normalization, then the exec query (or its proof,
//! and decode when the proof refuses); verify, structure, dataflow and
//! trips hit on unchanged ints-prints, and every front key, and so the
//! whole selection, is unchanged. An integer edit also re-runs the edited
//! function's structure, dataflow and trips.
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
//! fingerprints, and its analysis ints-print is mixed the same way —
//! design caches and selection fronts absorb the extra precision through
//! the same content keys as any other edit.
//!
//! An exec miss first tries to **prove** the run unnecessary. The store
//! keeps its most recently analysed application as the *parent*; when the
//! memory image is the same and [`cayman_ir::slice::counts_unchanged`]
//! shows that no instruction the new module changed can steer a branch, an
//! address, a trap or the entry function's return value, the exec query
//! answers without decoding or running anything: the parent's block
//! counts and return value, with `total_cycles` recomputed from the
//! new module ([`cayman_ir::cpu_model::total_cycles`], so an `fadd`→`fmul`
//! swap still moves the cycles), memoised under the new key. A proved
//! answer counts as an exec hit and in [`IncStats::proved`], and its span
//! is tagged `proved = true`. The attempt itself runs under the
//! `inc.exec.prove` span, whose end is tagged `proved = true|false`. Cold
//! stores have no parent and always run.
//!
//! An assembly **shares rather than copies** what the tables hold: the
//! wPST takes the structure query's `Arc`s and the [`Application`] the
//! dataflow query's, so applications that analysed a function identically
//! hold one copy of its analyses. The wPST's numbering depends only on the
//! region trees, so when every function's structure parts are the very
//! `Arc`s the parent's wPST holds, the assembly hands on the parent's
//! `Arc<Wpst>` and builds no node list.
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
//! [`Edit`]s, and maintains the per-function raw fps and ints-prints
//! incrementally — `apply` re-hashes only the touched function, which is
//! the explicit dirty mark on the wPST spine (the root's child subtree for
//! that function plus the whole-module exec/app/select keys above it). On the
//! next [`IncrementalApp::select`], clean root subtrees are answered from
//! the store's table of per-function subtree fronts (keyed by
//! [`FrontKey`]), and only the dirty spine is re-folded. Inside a dirty
//! function, `accel(v, R)` design vectors come from the store's
//! [`DesignCache`] for every region whose read set the edit left alone:
//! the structure and dataflow queries also compute the function's
//! [`FuncPrints`] halves, which each candidate folds into its key.
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
use cayman_hls::inputs::FuncPrints;
use cayman_ir::cpu_model::total_cycles;
use cayman_ir::fingerprint::fnv1a_u64s;
use cayman_ir::interp::{DecodedFunction, ExecProfile, Interp, Memory};
use cayman_ir::slice::counts_unchanged;
use cayman_ir::transform::{OptLevel, PassManager};
use cayman_ir::verify::VerifyError;
use cayman_ir::{
    decode_function, fingerprint_arrays, fingerprint_function_pair, fingerprint_memory,
    fingerprint_module_from_parts, FuncId, Function, FunctionFps, Instr, Module,
};
use cayman_obs::{ArgValue, Counter, SpanGuard};
use cayman_select::{
    front_keys, run_selection, AccelModel, CaymanModel, DesignCache, FrontKey, FrontTable,
    SelectOptions, SelectionResult,
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
    /// Exec misses answered by the slice proof instead of a run (each is
    /// also counted in `exec.hits`).
    pub proved: u64,
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
    /// function index or count, or the exec query's `proved` tag), and on a
    /// miss runs `body` under that span and memoises its result.
    fn get(
        &mut self,
        key: K,
        counter: &mut QueryCounter,
        arg: Option<(&'static str, ArgValue)>,
        body: impl FnOnce() -> Result<V, CaymanError>,
    ) -> Result<Arc<V>, CaymanError> {
        let hit = self.map.get(&key).cloned();
        let _q = if cayman_obs::enabled() {
            let mut args = vec![("hit", ArgValue::Bool(hit.is_some()))];
            args.extend(arg);
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

/// A normalize key: the raw function's bits under the module's array
/// declarations. `-O1` and `-O2` run the same pipeline and `-O0` runs
/// none, so the level is not part of it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NormKey {
    raw_fp: u64,
    arrays_fp: u64,
    verify_each: bool,
}

/// A rewritten function (normalized, or its shadow) and both its prints.
struct Rewritten {
    func: Function,
    fps: FunctionFps,
}

impl Rewritten {
    /// Runs `pipeline` on a copy of `module`'s function `f`.
    fn of(pipeline: &PassManager, module: &Module, f: FuncId) -> Result<Self, VerifyError> {
        let mut func = module.function(f).clone();
        pipeline.run(module, &mut func)?;
        Ok(Rewritten {
            fps: fingerprint_function_pair(&func),
            func,
        })
    }
}

/// A per-function key: one function print (the normalized bits for shadow
/// and decode, the analysis ints-print for dataflow) under the module's
/// array declarations.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FuncKey {
    fp: u64,
    arrays_fp: u64,
}

/// A function's structure parts, held as the `Arc`s every wPST assembled
/// from them shares.
struct FuncStructure {
    ctx: Arc<FuncCtx>,
    tree: Arc<RegionTree>,
    /// The structural half of the function's prints.
    prints: FuncPrints,
}

/// A function's dataflow facts, held as the `Arc`s every application
/// assembled from them shares.
struct FuncDataflow {
    accesses: Arc<AccessAnalysis>,
    deps: Arc<Vec<LoopDeps>>,
    /// The dataflow half of the function's prints.
    prints: FuncPrints,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ExecKey {
    norm_module_fp: u64,
    memory_fp: u64,
}

/// The most recently analysed application, which a fresh execution state is
/// proved against and whose wPST a fresh assembly reuses by pointer when
/// every function keeps its structure parts. Holds the application the app
/// table already shares: no module is copied.
struct ExecParent {
    memory_fp: u64,
    app: Arc<Application>,
}

impl ExecParent {
    /// The profile of `module` (normalized, executed from the memory image
    /// `memory_fp`, with per-function content fingerprints `fps`) when the
    /// slice proves its block counts and return value equal to the parent's.
    fn prove(&self, module: &Module, fps: &[u64], memory_fp: u64) -> Option<ExecProfile> {
        let app = &self.app;
        if self.memory_fp != memory_fp {
            return None;
        }
        // Analysis fingerprints are as good as executed-body ones here:
        // equal executed bodies have equal shadows.
        counts_unchanged(&app.module, &app.content_fps, module, fps).ok()?;
        let block_counts = app.exec.block_counts.clone();
        Some(ExecProfile {
            total_cycles: total_cycles(module, &block_counts),
            block_counts,
            return_value: app.exec.return_value,
        })
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TripsKey {
    /// The normalized function's ints-print.
    norm_ints: u64,
    arrays_fp: u64,
    bc_fp: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct AppKey {
    module_fp: u64,
    memory_fp: u64,
    level: OptLevel,
    verify_each: bool,
}

/// A selection's key: the [`FrontKey`] of every root child, which pins
/// everything the DP reads below the root, plus the options that reach the
/// root itself. It never reads the app key: an edit that changes only
/// immediate values changes no front key, so it re-selects nothing.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SelectKey {
    fronts: Vec<Option<FrontKey>>,
    model_fp: u64,
    alpha_bits: u64,
    prune_bits: u64,
}

/// All memoised query results. One store serves one logical application
/// across any number of edits — every key is content-derived, so stale
/// entries are merely unreachable, never wrong.
pub(crate) struct QueryStore {
    verified: Query<u64, ()>,
    normalize: Query<NormKey, Rewritten>,
    /// The address-canonicalized clone of each normalized function: same
    /// `InstrId`s/`ValueId`s/blocks/terminators as the executed body.
    shadow: Query<FuncKey, Rewritten>,
    structure: Query<u64, FuncStructure>,
    decode: Query<FuncKey, DecodedFunction>,
    exec: Query<ExecKey, ExecProfile>,
    dataflow: Query<FuncKey, FuncDataflow>,
    trips: Query<TripsKey, Vec<f64>>,
    apps: Query<AppKey, Application>,
    selections: Query<SelectKey, SelectionResult>,
    /// Memoised `accel(v, R)` design vectors, shared across edits (keys
    /// carry the candidate's read-set fingerprint, so an edit re-models
    /// only the regions that contain or read what it changed).
    designs: DesignCache,
    /// Memoised per-function-subtree Pareto fronts, read and extended by
    /// [`run_selection`].
    fronts: FrontTable,
    /// The last analysed state: the exec query's proof parent.
    parent: Option<ExecParent>,
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
            parent: None,
            stats: IncStats::default(),
            published: IncStats::default(),
        }
    }

    /// Adds everything counted since the last call to the process-scope
    /// `inc.*` counters. Called once at the end of each analysis or
    /// selection run, never per query.
    pub(crate) fn publish(&mut self) {
        static TOTALS: OnceLock<([[&Counter; 2]; 10], &Counter, &Counter)> = OnceLock::new();
        let (queries, proved, edits) = TOTALS.get_or_init(|| {
            (
                QUERY_COUNTERS.map(|n| n.map(cayman_obs::registry::counter)),
                cayman_obs::registry::counter("inc.exec.proved"),
                cayman_obs::registry::counter("inc.edits"),
            )
        });
        let kinds = self.stats.kinds().into_iter().zip(self.published.kinds());
        for ([hits, misses], (now, was)) in queries.iter().zip(kinds) {
            hits.add(now.hits - was.hits);
            misses.add(now.misses - was.misses);
        }
        proved.add(self.stats.proved - self.published.proved);
        edits.add(self.stats.edits - self.published.edits);
        self.published = self.stats;
    }
}

/// Per-function prints of a raw (pre-normalization) module, kept in step
/// with its functions: [`IncrementalApp`] re-hashes only what an edit
/// touched, and the batch path hashes every function once.
pub(crate) struct RawFps {
    /// Bit-exact prints: the normalize and app keys.
    bits: Vec<u64>,
    /// Ints-prints: the verify key.
    ints: Vec<u64>,
}

impl RawFps {
    /// The prints of every function of `functions`, one walk each.
    pub(crate) fn of(functions: &[Function]) -> RawFps {
        let mut fps = RawFps {
            bits: Vec::with_capacity(functions.len()),
            ints: Vec::with_capacity(functions.len()),
        };
        for f in functions {
            fps.push(f);
        }
        fps
    }

    fn push(&mut self, f: &Function) {
        let fp = fingerprint_function_pair(f);
        self.bits.push(fp.bits);
        self.ints.push(fp.ints);
    }

    fn set(&mut self, i: usize, f: &Function) {
        let fp = fingerprint_function_pair(f);
        self.bits[i] = fp.bits;
        self.ints[i] = fp.ints;
    }

    fn remove(&mut self, i: usize) {
        self.bits.remove(i);
        self.ints.remove(i);
    }
}

/// Whether `wpst` was assembled from exactly the parts in `structures`:
/// the same `Arc`s, function for function.
fn holds_parts(wpst: &Wpst, structures: &[Arc<FuncStructure>]) -> bool {
    wpst.func_ctxs.len() == structures.len()
        && structures.iter().enumerate().all(|(i, s)| {
            Arc::ptr_eq(&wpst.func_ctxs[i], &s.ctx) && Arc::ptr_eq(&wpst.region_trees[i], &s.tree)
        })
}

/// Assembles a fully analysed [`Application`] over `store`'s queries.
///
/// `raw` must hold the prints of `module`'s (pre-normalization) functions.
pub(crate) fn assemble(
    store: &mut QueryStore,
    module: &Module,
    memory: Option<&Memory>,
    memory_fp: u64,
    opts: &AnalyseOptions,
    raw: &RawFps,
) -> Result<Arc<Application>, CaymanError> {
    let arrays_fp = fingerprint_arrays(&module.arrays);
    let module_fp = fingerprint_module_from_parts(&module.name, &raw.bits, arrays_fp);
    let app_key = AppKey {
        module_fp,
        memory_fp,
        level: opts.opt_level,
        verify_each: opts.verify_each_pass,
    };
    let functions = Some(("functions", ArgValue::from(module.functions.len())));
    let counts = &mut store.stats;
    let app = store.apps.get(app_key, &mut counts.app, functions, || {
        // Stage 1: verify (whole-module; a hit means content of this shape
        // already verified clean). The verifier reads no immediate's value,
        // and its cross-function reads, callee signatures and arrays, are
        // inside this fold.
        {
            let _s = cayman_obs::span!("analyse.verify");
            let verify_key = fingerprint_module_from_parts(&module.name, &raw.ints, arrays_fp);
            store.verified.get(
                verify_key,
                &mut counts.verify,
                None,
                || Ok(module.verify()?),
            )?;
        }

        // Stage 2: normalize, one keyed query per function. `-O2` *executes*
        // the `-O1` body (the extra canonicalization lives in analysis
        // shadows, stage 2b), so the normalize/structure/decode/exec caches
        // are shared between the two levels and observable behavior is
        // bit-identical.
        let n = module.functions.len();
        let mut norm_fps: Vec<u64> = Vec::with_capacity(n);
        let mut norm_ints: Vec<u64> = Vec::with_capacity(n);
        let working = {
            let _s = cayman_obs::span!("analyse.normalize");
            let mut functions = Vec::with_capacity(n);
            if opts.opt_level == OptLevel::O0 {
                norm_fps.extend_from_slice(&raw.bits);
                norm_ints.extend_from_slice(&raw.ints);
                functions.extend_from_slice(&module.functions);
            } else {
                let pipeline = PassManager::standard().verify_each_pass(opts.verify_each_pass);
                for f in module.function_ids() {
                    let key = NormKey {
                        raw_fp: raw.bits[f.index()],
                        arrays_fp,
                        verify_each: opts.verify_each_pass,
                    };
                    let arg = Some(("func", ArgValue::from(f.index())));
                    let cached = store.normalize.get(key, &mut counts.normalize, arg, || {
                        Ok(Rewritten::of(&pipeline, module, f)?)
                    })?;
                    functions.push(cached.func.clone());
                    norm_fps.push(cached.fps.bits);
                    norm_ints.push(cached.fps.ints);
                }
            }
            Module {
                name: module.name.clone(),
                functions,
                arrays: module.arrays.clone(),
            }
        };
        let norm_module_fp = fingerprint_module_from_parts(&working.name, &norm_fps, arrays_fp);

        // Stage 2b (`-O2` only): per-function address-canonicalization
        // shadows. The shadow never executes — verification happens on the
        // whole module in stage 1, and `address_canon`'s identity contract
        // (pinned by the workload differential suite) keeps every
        // memory/phi/call instruction in place — so the pipeline runs
        // unverified on a clone of the normalized function.
        let mut shadows: Vec<Option<Arc<Rewritten>>> = vec![None; n];
        let mut analysis_fps = norm_fps.clone();
        let mut analysis_ints = norm_ints.clone();
        if opts.opt_level == OptLevel::O2 {
            let _s = cayman_obs::span!("analyse.shadow");
            for f in working.function_ids() {
                let key = FuncKey {
                    fp: norm_fps[f.index()],
                    arrays_fp,
                };
                let arg = Some(("func", ArgValue::from(f.index())));
                let cached = store.shadow.get(key, &mut counts.shadow, arg, || {
                    Ok(Rewritten::of(&PassManager::address_canon(), &working, f)
                        .expect("address_canon never verifies, so never fails"))
                })?;
                let i = f.index();
                if cached.fps.bits != norm_fps[i] {
                    // Analysis facts now depend on both bodies: the executed
                    // `-O1` one (schedules, profiles) and the shadow (SCEV).
                    analysis_fps[i] = fnv1a_u64s(&[norm_fps[i], cached.fps.bits]);
                    analysis_ints[i] = fnv1a_u64s(&[norm_ints[i], cached.fps.ints]);
                }
                shadows[i] = Some(cached);
            }
        }

        // Stage 3: profile — wPST from per-function structure queries, then
        // the whole-module execution query.
        let mut structures = Vec::with_capacity(n);
        let (wpst, exec, profile) = {
            let _s = cayman_obs::span!("analyse.profile");
            for f in working.function_ids() {
                let key = norm_ints[f.index()];
                let arg = Some(("func", ArgValue::from(f.index())));
                let parts = store.structure.get(key, &mut counts.structure, arg, || {
                    let func = working.function(f);
                    let ctx = FuncCtx::compute(func);
                    let tree = Arc::new(RegionTree::build(func, &ctx));
                    let prints = FuncPrints::structure(func, &ctx);
                    let ctx = Arc::new(ctx);
                    Ok(FuncStructure { ctx, tree, prints })
                })?;
                structures.push(parts);
            }
            // The wPST's numbering depends on the region trees alone, so
            // when every function kept its parts the parent's tree is this
            // one: share it instead of reassembling it.
            let parent_wpst = store.parent.as_ref().map(|p| &p.app.wpst);
            let wpst = match parent_wpst {
                Some(w) if holds_parts(w, &structures) => Arc::clone(w),
                _ => Arc::new(Wpst::from_parts(
                    structures.iter().map(|s| Arc::clone(&s.tree)).collect(),
                    structures.iter().map(|s| Arc::clone(&s.ctx)).collect(),
                )),
            };

            let exec_key = ExecKey {
                norm_module_fp,
                memory_fp,
            };
            let proved = match &store.parent {
                Some(parent) if !store.exec.map.contains_key(&exec_key) => {
                    let mut span = cayman_obs::span!("inc.exec.prove");
                    let res = parent.prove(&working, &analysis_fps, memory_fp);
                    span.tag("proved", res.is_some());
                    res
                }
                _ => None,
            };
            let tag = proved.is_some().then_some(("proved", ArgValue::Bool(true)));
            if let Some(res) = proved {
                counts.proved += 1;
                store.exec.map.insert(exec_key, Arc::new(res));
            }
            let exec = store.exec.get(exec_key, &mut counts.exec, tag, || {
                // Decode is only needed to execute, so its per-function
                // queries run lazily inside the exec miss.
                let mut decoded = Vec::with_capacity(n);
                for f in working.function_ids() {
                    let key = FuncKey {
                        fp: norm_fps[f.index()],
                        arrays_fp,
                    };
                    let arg = Some(("func", ArgValue::from(f.index())));
                    let d = store.decode.get(key, &mut counts.decode, arg, || {
                        Ok(decode_function(&working, f))
                    })?;
                    decoded.push((*d).clone());
                }
                let mut interp = Interp::from_cached_decode(&working, decoded);
                if let Some(mem) = memory {
                    interp.memory = mem.clone();
                }
                Ok(interp.run(&[])?)
            })?;
            let profile = Profile::aggregate(&working, &wpst, &exec);
            (wpst, exec, profile)
        };

        // Stage 4: analyse — per-function dataflow and trip-count queries.
        let mut accesses = Vec::with_capacity(n);
        let mut deps = Vec::with_capacity(n);
        let mut trips = Vec::with_capacity(n);
        let mut prints = Vec::with_capacity(n);
        let mut selection_fps = Vec::with_capacity(n);
        {
            let _s = cayman_obs::span!("analyse.dataflow");
            for f in working.function_ids() {
                let func = working.function(f);
                let ctx: &FuncCtx = &wpst.func_ctxs[f.index()];
                let arg = Some(("func", ArgValue::from(f.index())));
                let dkey = FuncKey {
                    fp: analysis_ints[f.index()],
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
                        Some(s) if s.fps.bits != norm_fps[f.index()] => {
                            shadow_ctx = FuncCtx::compute(&s.func);
                            (&s.func, &shadow_ctx)
                        }
                        _ => (func, ctx),
                    };
                    let mut scev = Scev::new(afunc, actx);
                    let accesses = AccessAnalysis::run(&working, afunc, actx, &mut scev);
                    let deps = analyse_loop_deps(afunc, actx, &mut scev, &accesses);
                    let prints = FuncPrints::dataflow(afunc.blocks.len(), &accesses, &deps);
                    Ok(FuncDataflow {
                        accesses: Arc::new(accesses),
                        deps: Arc::new(deps),
                        prints,
                    })
                })?;
                let tkey = TripsKey {
                    norm_ints: norm_ints[f.index()],
                    arrays_fp,
                    bc_fp: fnv1a_u64s(&profile.block_counts[f.index()]),
                };
                let arg = Some(("func", ArgValue::from(f.index())));
                let tt = store.trips.get(tkey, &mut counts.trips, arg, || {
                    Ok(ctx
                        .forest
                        .ids()
                        .map(|l| trip_count(&wpst, &profile, func, f, l).unwrap_or(1.0))
                        .collect())
                })?;
                let structure = &structures[f.index()].prints;
                let joined = FuncPrints::join(structure, &df.prints, arrays_fp);
                selection_fps.push(joined.selection_fp(&profile.block_counts[f.index()], &tt));
                prints.push(joined);
                accesses.push(Arc::clone(&df.accesses));
                deps.push(Arc::clone(&df.deps));
                trips.push((*tt).clone());
            }
        }

        Ok(Application {
            module: working,
            wpst,
            profile,
            exec: (*exec).clone(),
            accesses,
            deps,
            trips,
            content_fps: analysis_fps,
            prints,
            selection_fps,
        })
    })?;
    store.parent = Some(ExecParent {
        memory_fp,
        app: Arc::clone(&app),
    });
    Ok(app)
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
    raw: RawFps,
    store: QueryStore,
}

impl IncrementalApp {
    /// Wraps a raw (pre-normalization) module with an empty store.
    pub fn new(module: Module, memory: Option<Memory>, opts: AnalyseOptions) -> Self {
        let raw = RawFps::of(&module.functions);
        let memory_fp = memory.as_ref().map(fingerprint_memory).unwrap_or(0);
        IncrementalApp {
            module,
            memory,
            memory_fp,
            opts,
            raw,
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
                self.raw.set(func.index(), &body);
                self.module.functions[func.index()] = body;
            }
            Edit::AddFunction { body } => {
                self.raw.push(&body);
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
                self.raw.remove(func.index());
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
                        self.raw.set(i, caller);
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
        let res = assemble(
            &mut self.store,
            &self.module,
            self.memory.as_ref(),
            self.memory_fp,
            &self.opts,
            &self.raw,
        );
        self.store.publish();
        res
    }

    /// Analyses and selects, reusing cached designs and per-function
    /// subtree fronts for clean wPST subtrees.
    ///
    /// The selection is keyed by the root's [`front_keys`], so a state whose
    /// every function reads the same to the model as an earlier one — a
    /// revert, or an edit that only changes immediate values — is answered
    /// with that state's selection. A re-selection answers clean functions
    /// from the front table.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`IncrementalApp::analyse`].
    pub fn select(&mut self, opts: &SelectOptions) -> Result<Arc<SelectionResult>, CaymanError> {
        let app = self.analyse()?;
        let model = CaymanModel(opts.model.clone());
        let model_id = model
            .cache_id()
            .expect("Cayman's model has a cache identity");
        let fronts = front_keys(
            &app.wpst,
            app.profile.total_cycles,
            &app.selection_fps,
            opts,
            Some(model_id),
        );
        let key = SelectKey {
            fronts: fronts.clone(),
            model_fp: model_id.options,
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
                    &model,
                    &store.designs,
                    Some((&mut store.fronts, &fronts)),
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
    use cayman_ir::instr::{BinOp, Imm, Operand};
    use cayman_ir::module::ValueDef;
    use cayman_ir::{InstrId, Type, ValueId};

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

    /// Function `func` of `m` with its first `from` instruction turned into
    /// `to` — a single-instruction edit the model sees.
    fn swapped(m: &Module, func: usize, from: BinOp, to: BinOp) -> Function {
        let mut body = m.functions[func].clone();
        let op = body
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Binary { op, .. } if *op == from => Some(op),
                _ => None,
            })
            .expect("the function has the opcode");
        *op = to;
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
        let first = inc.select(&SelectOptions::default()).expect("cold select");
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
        // No analysis reads a float immediate, so every other pre-exec query
        // of the edited function hits, as do its dataflow and trips.
        for (kind, now, was) in [
            ("verify", warm.verify, cold.verify),
            ("structure", warm.structure, cold.structure),
            ("dataflow", warm.dataflow, cold.dataflow),
            ("trips", warm.trips, cold.trips),
        ] {
            assert_eq!(now.misses, was.misses, "{kind} re-ran");
        }
        assert_eq!(warm.verify.hits - cold.verify.hits, 1);
        assert_eq!(warm.structure.hits - cold.structure.hits, 3);
        assert_eq!(warm.dataflow.hits - cold.dataflow.hits, 3);
        assert_eq!(warm.trips.hits - cold.trips.hits, 3);
        // The nudged value reaches no branch, address or return, so the
        // profile is proved unchanged: nothing is decoded or run...
        assert_eq!(warm.exec.hits - cold.exec.hits, 1);
        assert_eq!(warm.proved - cold.proved, 1);
        assert_eq!(warm.exec.misses, cold.exec.misses);
        assert_eq!(warm.decode.hits, cold.decode.hits);
        assert_eq!(warm.decode.misses, cold.decode.misses);
        assert_eq!(warm.app.misses - cold.app.misses, 1);
        // ...and no model reads the value, so every front key stands and
        // the selection is the cold one: no fold, no model call.
        assert_eq!(warm.select.hits - cold.select.hits, 1);
        assert_eq!(warm.select.misses, cold.select.misses);
        assert!(Arc::ptr_eq(&first, &res), "nothing re-selected");

        // An edit of `ka`'s trip count changes the counts, so execution
        // re-runs, reusing the clean functions' decoded bodies.
        let mut body = edited_ka(&m);
        for instr in &mut body.instrs {
            if let Instr::Cmp { rhs, .. } = instr {
                if *rhs == Operand::int(32) {
                    *rhs = Operand::int(16);
                }
            }
        }
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body,
        })
        .expect("applies");
        inc.select(&SelectOptions::default()).expect("re-select");
        let rerun = *inc.stats();
        assert_eq!(rerun.exec.misses - warm.exec.misses, 1);
        assert_eq!(rerun.proved, warm.proved);
        assert_eq!(rerun.decode.hits - warm.decode.hits, 2);
        assert_eq!(rerun.decode.misses - warm.decode.misses, 1);

        // An opcode swap in `kb` is an edit the model sees. `fadd` and
        // `fsub` cost the CPU the same, so the cycle total every front key
        // holds stays put and the clean functions' fronts are reused.
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(1),
            body: swapped(&m, 1, BinOp::FAdd, BinOp::FSub),
        })
        .expect("applies");
        let res = inc.select(&SelectOptions::default()).expect("re-select");
        let swap = *inc.stats();
        assert_eq!(swap.proved - rerun.proved, 1, "still proved");
        assert_eq!(swap.select.misses - rerun.select.misses, 1);
        assert_eq!((res.stats.front_hits, res.stats.front_misses), (2, 1));
        assert!(res.stats.cache_misses > 0, "kb's regions re-model");
    }

    #[test]
    fn an_edit_shares_every_clean_functions_analyses_by_pointer() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let cold = inc.analyse().expect("cold");
        // The parts of function `i` that two applications share.
        let shared = |a: &Application, b: &Application, i: usize| {
            [
                Arc::ptr_eq(&a.wpst.func_ctxs[i], &b.wpst.func_ctxs[i]),
                Arc::ptr_eq(&a.wpst.region_trees[i], &b.wpst.region_trees[i]),
                Arc::ptr_eq(&a.accesses[i], &b.accesses[i]),
                Arc::ptr_eq(&a.deps[i], &b.deps[i]),
            ]
        };

        // A float nudge keeps every function's structure and dataflow, so
        // the new application holds the old one's wPST and analyses.
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: edited_ka(&m),
        })
        .expect("applies");
        let nudged = inc.analyse().expect("nudged");
        assert!(!Arc::ptr_eq(&cold, &nudged), "a fresh application");
        assert!(Arc::ptr_eq(&cold.wpst, &nudged.wpst), "the wPST is reused");
        for i in 0..3 {
            assert_eq!(shared(&cold, &nudged, i), [true; 4], "function {i}");
        }

        // An opcode swap in `kb` re-runs its structure and dataflow: `ka`
        // and `main` are still shared, `kb` and the wPST are new.
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(1),
            body: swapped(&m, 1, BinOp::FAdd, BinOp::FMul),
        })
        .expect("applies");
        let swap = inc.analyse().expect("swapped");
        assert!(!Arc::ptr_eq(&nudged.wpst, &swap.wpst), "kb's tree is new");
        assert_eq!(shared(&nudged, &swap, 0), [true; 4], "ka");
        assert_eq!(shared(&nudged, &swap, 2), [true; 4], "main");
        assert_eq!(shared(&nudged, &swap, 1), [false; 4], "kb");
    }

    /// One function with two sibling loop nests: nest A scales `x`, nest
    /// B offsets `y`.
    fn two_nest_module() -> Module {
        let mut mb = ModuleBuilder::new("nests");
        let x = mb.array("x", Type::F64, &[8, 16]);
        let y = mb.array("y", Type::F64, &[8, 16]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                fb.counted_loop(0, 16, 1, |fb, j| {
                    let v = fb.load_idx(x, &[i, j]);
                    let w = fb.fmul(v, fb.fconst(2.0));
                    fb.store_idx(x, &[i, j], w);
                });
            });
            fb.counted_loop(0, 8, 1, |fb, i| {
                fb.counted_loop(0, 16, 1, |fb, j| {
                    let v = fb.load_idx(y, &[i, j]);
                    let w = fb.fadd(v, fb.fconst(1.0));
                    fb.store_idx(y, &[i, j], w);
                });
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn an_edit_remodels_only_the_regions_that_contain_it() {
        let m = two_nest_module();
        let opts = SelectOptions::default();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let cold = inc.select(&opts).expect("cold select");
        let lookups = cold.stats.cache_hits + cold.stats.cache_misses;

        // Nudging nest A's multiplier re-models nothing: no model reads the
        // value, so the selection query answers outright.
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: edited_ka(&m),
        })
        .expect("applies");
        let before = *inc.stats();
        let res = inc.select(&opts).expect("re-select");
        assert_eq!(inc.stats().select.hits - before.select.hits, 1);
        assert!(Arc::ptr_eq(&cold, &res), "no fold, no model call");

        // Turning the multiply into an add is an edit the model sees.
        let edited = swapped(&m, 0, BinOp::FMul, BinOp::FAdd);
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: edited.clone(),
        })
        .expect("applies");
        let res = inc.select(&opts).expect("re-select");
        let app = inc.analyse().expect("analysed");

        // The block holding the edited instruction, and nest B's blocks.
        let func = app.module.function(FuncId(0));
        let ctx = &app.wpst.func_ctxs[0];
        let nudged = func
            .block_ids()
            .flat_map(|b| func.block(b).instrs.iter().copied())
            .find(|&i| {
                matches!(func.instr(i), Instr::Binary { op: BinOp::FAdd, rhs: Operand::Const(Imm::Float(v)), .. }
                    if *v == 2.0)
            })
            .expect("edited instruction survives normalization");
        let edited_block = ctx.block_of(nudged);
        let nest_b = ctx
            .forest
            .ids()
            .filter(|&l| ctx.forest.get(l).depth == 1)
            .max_by_key(|&l| ctx.forest.get(l).header)
            .map(|l| ctx.forest.get(l).blocks.clone())
            .expect("two outer loops");
        assert!(!nest_b.contains(&edited_block));

        // Every candidate the DP models, split by what it contains.
        let modeled = |keep: &dyn Fn(&[cayman_ir::BlockId]) -> bool| {
            app.wpst
                .ids()
                .filter(|&v| {
                    app.wpst.region(v).is_some_and(|(r, _)| {
                        let p = app.profile.of(v);
                        r.accelerable && p.entries > 0 && p.cycles > 0 && keep(&r.blocks)
                    })
                })
                .count() as u64
        };
        let containing = modeled(&|blocks| blocks.contains(&edited_block));
        let in_b = modeled(&|blocks| blocks.iter().all(|b| nest_b.contains(b)));
        assert!(containing > 0 && in_b > 0);
        assert_eq!(
            res.stats.cache_misses, containing,
            "only regions with the edit re-model"
        );
        assert_eq!(res.stats.cache_hits + res.stats.cache_misses, lookups);
        assert!(res.stats.cache_hits >= in_b, "every nest-B candidate hits");

        // And the front is the batch pipeline's, bit for bit.
        let mut batch_module = m;
        batch_module.functions[0] = edited;
        let batch = Application::analyse(batch_module).expect("batch analyses");
        let batch_sel = run_selection(
            &batch.module,
            &batch.wpst,
            &batch.profile,
            &batch.inputs(),
            &opts,
            &CaymanModel::default(),
            &DesignCache::new(),
            None,
        );
        assert_eq!(fronts_bits(&res), fronts_bits(&batch_sel));
    }

    #[test]
    fn a_never_entered_loops_trip_count_reaches_the_select_key() {
        // An outer loop holds an inner loop behind a branch that zeroed
        // memory never takes, so the inner loop's static trip count moves
        // with its bound while no block count does.
        let mk = |n: i64| {
            let mut mb = ModuleBuilder::new("cold");
            let flag = mb.array("flag", Type::I64, &[1]);
            let x = mb.array("x", Type::F64, &[8, 64]);
            mb.function("main", &[], None, |fb| {
                fb.counted_loop(0, 8, 1, |fb, i| {
                    let zero = fb.iconst(0);
                    let f = fb.load_idx_ty(flag, &[zero], Type::I64);
                    let taken = fb.icmp_eq(f, fb.iconst(1));
                    fb.if_then(taken, |fb| {
                        fb.counted_loop(0, n, 1, |fb, j| {
                            let v = fb.load_idx(x, &[i, j]);
                            let w = fb.fmul(v, fb.fconst(2.0));
                            fb.store_idx(x, &[i, j], w);
                        });
                    });
                    let v = fb.load_idx(x, &[i, zero]);
                    let w = fb.fadd(v, fb.fconst(1.0));
                    fb.store_idx(x, &[i, zero], w);
                });
                fb.ret(None);
            });
            mb.finish()
        };
        let (short, long) = (mk(16), mk(32));
        let opts = SelectOptions::default();
        let mut inc = IncrementalApp::new(short, None, AnalyseOptions::default());
        let before = inc.analyse().expect("analyses");
        inc.select(&opts).expect("cold select");
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: long.functions[0].clone(),
        })
        .expect("applies");
        let after = inc.analyse().expect("re-analyses");
        assert_eq!(after.profile.block_counts, before.profile.block_counts);
        assert_ne!(after.trips, before.trips, "the static trip count moved");
        let misses = inc.stats().select.misses;
        let res = inc.select(&opts).expect("re-selects");
        assert_eq!(
            inc.stats().select.misses - misses,
            1,
            "the key saw the trips"
        );
        let batch = Application::analyse(long).expect("batch analyses");
        let batch_sel = run_selection(
            &batch.module,
            &batch.wpst,
            &batch.profile,
            &batch.inputs(),
            &opts,
            &CaymanModel::default(),
            &DesignCache::new(),
            None,
        );
        assert_eq!(fronts_bits(&res), fronts_bits(&batch_sel));
    }

    #[test]
    fn an_integer_edit_misses_dataflow_and_trips() {
        // An outer loop over `i` holds an inner loop of `n` trips behind a
        // branch zeroed memory never takes, then updates `x[i][k]`.
        let mk = |n: i64, k: i64| {
            let mut mb = ModuleBuilder::new("ints");
            let flag = mb.array("flag", Type::I64, &[1]);
            let x = mb.array("x", Type::F64, &[8, 64]);
            mb.function("main", &[], None, |fb| {
                fb.counted_loop(0, 8, 1, |fb, i| {
                    let zero = fb.iconst(0);
                    let f = fb.load_idx_ty(flag, &[zero], Type::I64);
                    let taken = fb.icmp_eq(f, fb.iconst(1));
                    fb.if_then(taken, |fb| {
                        fb.counted_loop(0, n, 1, |fb, j| {
                            let v = fb.load_idx(x, &[i, j]);
                            let w = fb.fmul(v, fb.fconst(2.0));
                            fb.store_idx(x, &[i, j], w);
                        });
                    });
                    let at = fb.iconst(k);
                    let v = fb.load_idx(x, &[i, at]);
                    let w = fb.fadd(v, fb.fconst(1.0));
                    fb.store_idx(x, &[i, at], w);
                });
                fb.ret(None);
            });
            mb.finish()
        };
        let mut inc = IncrementalApp::new(mk(16, 0), None, AnalyseOptions::default());
        let mut last = inc.analyse().expect("analyses");
        // The loop bound moves a static trip count and no block count; the
        // offset moves an access and no trip count.
        for (n, k) in [(32, 0), (32, 1)] {
            let before = *inc.stats();
            let edited = mk(n, k);
            inc.apply(Edit::ReplaceFunction {
                func: FuncId(0),
                body: edited.functions[0].clone(),
            })
            .expect("applies");
            let app = inc.analyse().expect("re-analyses");
            let after = *inc.stats();
            assert_eq!(app.profile.block_counts, last.profile.block_counts);
            assert_eq!(after.dataflow.misses - before.dataflow.misses, 1, "{n} {k}");
            assert_eq!(after.trips.misses - before.trips.misses, 1, "{n} {k}");
            let batch = Application::analyse(edited).expect("batch analyses");
            assert_eq!(app.trips, batch.trips);
            let accesses = |a: &Application| format!("{:?}", a.accesses);
            assert_eq!(accesses(&app), accesses(&batch));
            assert_eq!(app.selection_fps, batch.selection_fps);
            let moved = (app.trips != last.trips, accesses(&app) != accesses(&last));
            assert_eq!(moved, (k == 0, k == 1), "what the edit moved");
            last = app;
        }
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
    fn an_entry_block_phi_fails_verification_and_a_revert_hits() {
        let m = two_kernel_module();
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::default());
        let first = inc.analyse().expect("cold");
        // `ka` with a phi heading its entry block: no edge enters the
        // entry, so the phi has nothing to read.
        let mut body = m.functions[0].clone();
        let phi = InstrId(body.instrs.len() as u32);
        body.instrs.push(Instr::Phi {
            ty: Type::I64,
            incomings: Vec::new(),
        });
        body.instr_results
            .push(Some(ValueId(body.values.len() as u32)));
        body.values.push(ValueDef::Instr(phi));
        body.blocks[0].instrs.insert(0, phi);
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body,
        })
        .expect("applies");
        let Err(err) = inc.analyse() else {
            panic!("an entry-block phi must not analyse");
        };
        assert!(matches!(err, CaymanError::Verify(_)), "{err}");
        inc.apply(Edit::ReplaceFunction {
            func: FuncId(0),
            body: m.functions[0].clone(),
        })
        .expect("reverts");
        let before = *inc.stats();
        let reverted = inc.analyse().expect("reverted");
        let after = *inc.stats();
        assert_eq!(after.app.hits - before.app.hits, 1);
        assert_eq!(after.app.misses, before.app.misses);
        assert!(Arc::ptr_eq(&first, &reverted), "the cached original");
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
        let mut inc = IncrementalApp::new(m.clone(), None, AnalyseOptions::o0());
        let raw = inc.analyse().expect("O0 analyses");
        assert_eq!(inc.stats().normalize.misses, 0, "O0 normalizes nothing");
        assert_eq!(raw.module.to_text(), m.to_text());
        inc.apply(Edit::SetOptLevel(OptLevel::O1)).expect("applies");
        let opt = inc.analyse().expect("O1 analyses");
        assert_eq!(
            inc.stats().normalize.misses,
            3,
            "O1 normalizes every function"
        );
        let count = |m: &Module| m.functions.iter().map(|f| f.instr_count()).sum::<usize>();
        assert!(
            count(&opt.module) < count(&raw.module),
            "O1 shrinks the module"
        );
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
