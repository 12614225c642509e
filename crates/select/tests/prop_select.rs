//! Property test: the selection Pareto front is *bit-identical* on every
//! reuse path for randomly generated workload shapes.
//!
//! [`TreeShape`] draws skewed wPST shapes — deep chains, wide fan-outs, hot
//! single subtrees — which are materialised into real IR modules, profiled,
//! and selected three ways: cold (fresh design cache, empty front table),
//! again on the warm design cache, and again from the front table the cold
//! run filled. Any divergence (a stale cache entry, a front answered for
//! the wrong subtree, a miscounted vertex) fails the property with a
//! replayable seed, and the harness shrinks the shape toward a minimal
//! reproduction.

use cayman_analysis::access::{trip_count, AccessAnalysis};
use cayman_analysis::memdep::{analyse_loop_deps, LoopDeps};
use cayman_analysis::profile::Profile;
use cayman_analysis::scev::Scev;
use cayman_analysis::wpst::Wpst;
use cayman_hls::inputs::{FuncInputs, FuncPrints};
use cayman_ir::builder::{FunctionBuilder, ModuleBuilder};
use cayman_ir::interp::Interp;
use cayman_ir::{ArrayId, Module, Operand, Type};
use cayman_select::{
    front_keys, run_selection, AccelModel, CaymanModel, DesignCache, FrontTable, SelectOptions,
    SelectionResult, Solution,
};
use cayman_testkit::tree::{FuncShape, TreeShape, MAX_CASE_ITERATIONS};
use cayman_testkit::{prop_assert, prop_assert_eq, prop_check};
use std::collections::HashMap;

/// Owned analysis state (module + wPST + profile + per-function analyses),
/// mirroring what the `cayman` facade computes for a real application.
struct App {
    module: Module,
    wpst: Wpst,
    profile: Profile,
    accesses: Vec<AccessAnalysis>,
    deps: Vec<Vec<LoopDeps>>,
    trips: Vec<Vec<f64>>,
    prints: Vec<FuncPrints>,
}

impl App {
    fn analyse(module: Module) -> App {
        module.verify().expect("generated module verifies");
        let wpst = Wpst::build(&module);
        let exec = Interp::new(&module)
            .run(&[])
            .expect("generated module runs");
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

    fn inputs(&self) -> Vec<FuncInputs<'_>> {
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

    /// A selection with Cayman's model on `cache`, reusing and filling
    /// `fronts` when given.
    fn select(&self, cache: &DesignCache, fronts: Option<&mut FrontTable>) -> SelectionResult {
        let opts = SelectOptions::default();
        let inputs = self.inputs();
        let model = CaymanModel(opts.model.clone());
        let fps: Vec<u64> = inputs
            .iter()
            .map(|i| i.prints.selection_fp(i.block_counts, i.trips))
            .collect();
        let keys = front_keys(
            &self.wpst,
            self.profile.total_cycles,
            &fps,
            &opts,
            model.cache_id(),
        );
        run_selection(
            &self.module,
            &self.wpst,
            &self.profile,
            &inputs,
            &opts,
            &model,
            cache,
            fronts.map(|table| (table, &keys[..])),
        )
    }
}

/// Builds the loop nest `trips` (outermost first) around `body`, collecting
/// the induction variables of the enclosing loops.
fn nest(
    fb: &mut FunctionBuilder,
    trips: &[u32],
    idxs: &mut Vec<Operand>,
    body: &mut dyn FnMut(&mut FunctionBuilder, &[Operand]),
) {
    match trips.split_first() {
        None => body(fb, idxs),
        Some((&t, rest)) => fb.counted_loop(0, i64::from(t), 1, |fb, i| {
            idxs.push(i);
            nest(fb, rest, idxs, body);
            idxs.pop();
        }),
    }
}

/// The innermost body of one generated function: a load/multiply/accumulate
/// chain with `body_ops` extra float ops and an optional if/else diamond
/// keyed on the innermost index's parity (so both arms execute).
fn emit_body(fb: &mut FunctionBuilder, fs: &FuncShape, a: ArrayId, b: ArrayId, idxs: &[Operand]) {
    let av = fb.load_idx(a, idxs);
    let bv = fb.load_idx(b, idxs);
    let mut acc = fb.fmul(av, bv);
    for k in 0..fs.body_ops {
        acc = if k % 2 == 0 {
            fb.fadd(acc, av)
        } else {
            fb.fmul(acc, bv)
        };
    }
    if fs.diamond {
        let inner = idxs[idxs.len() - 1];
        let two = fb.iconst(2);
        let rem = fb.srem(inner, two);
        let zero = fb.iconst(0);
        let even = fb.icmp_eq(rem, zero);
        acc = fb.if_then_else_val(
            even,
            Type::F64,
            |fb| fb.fadd(acc, fb.fconst(1.0)),
            |fb| fb.fmul(acc, fb.fconst(0.5)),
        );
    }
    fb.store_idx(b, idxs, acc);
}

/// Materialises a [`TreeShape`] into a module: one function per
/// [`FuncShape`] (each reading one array and writing another), called in
/// order from `main`.
fn build_module(shape: &TreeShape) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let arrays: Vec<(ArrayId, ArrayId)> = shape
        .funcs
        .iter()
        .enumerate()
        .map(|(i, fs)| {
            let dims: Vec<usize> = fs.trips.iter().map(|&t| t as usize).collect();
            (
                mb.array(format!("a{i}"), Type::F64, &dims),
                mb.array(format!("b{i}"), Type::F64, &dims),
            )
        })
        .collect();
    let fids: Vec<_> = shape
        .funcs
        .iter()
        .zip(&arrays)
        .enumerate()
        .map(|(i, (fs, &(a, b)))| {
            mb.function(format!("f{i}"), &[], None, |fb| {
                let mut idxs = Vec::new();
                nest(fb, &fs.trips, &mut idxs, &mut |fb, idxs| {
                    emit_body(fb, fs, a, b, idxs)
                });
                fb.ret(None);
            })
        })
        .collect();
    mb.function("main", &[], None, |fb| {
        for &f in &fids {
            fb.call(f, &[], None);
        }
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

#[test]
fn random_tree_shapes_select_identically_on_every_reuse_path() {
    prop_check!(cases = 20, |rng| {
        let shape = TreeShape::arbitrary(rng);
        prop_assert!(
            shape.iterations() <= MAX_CASE_ITERATIONS,
            "generator broke its work bound: {} iterations",
            shape.iterations()
        );
        let app = App::analyse(build_module(&shape));
        // Every root child is a function vertex, keyable under Cayman's
        // model.
        let functions = app.wpst.node(app.wpst.root()).children.len() as u64;

        let cache = DesignCache::new();
        let mut table = HashMap::new();
        let cold = app.select(&cache, Some(&mut table));
        prop_assert!(cold.stats.cache_misses > 0, "the cold run models");
        prop_assert_eq!(cold.stats.cache_hits, 0);
        prop_assert_eq!(
            (cold.stats.front_hits, cold.stats.front_misses),
            (0, functions)
        );
        prop_assert_eq!(table.len() as u64, functions);

        // The warm design cache answers every model call.
        let warm = app.select(&cache, None);
        prop_assert!(
            fronts_identical(&cold.pareto, &warm.pareto),
            "the warm design cache changed the front for {shape:?}"
        );
        prop_assert_eq!(warm.stats.cache_misses, 0);
        prop_assert_eq!(warm.stats.cache_hits, cold.stats.cache_misses);
        prop_assert_eq!(warm.visited, cold.visited);
        prop_assert_eq!(warm.stats.pruned, cold.stats.pruned);
        prop_assert_eq!(warm.stats.configs_considered, cold.stats.configs_considered);

        // The front table answers every function vertex, so nothing below
        // the root is folded or modeled, even on a cold design cache.
        let reused = app.select(&DesignCache::new(), Some(&mut table));
        prop_assert!(
            fronts_identical(&cold.pareto, &reused.pareto),
            "the front table changed the front for {shape:?}"
        );
        prop_assert_eq!(
            (reused.stats.front_hits, reused.stats.front_misses),
            (functions, 0)
        );
        prop_assert_eq!(reused.stats.cache_hits + reused.stats.cache_misses, 0);
        prop_assert_eq!(table.len() as u64, functions);
        Ok(())
    });
}
