//! Property test: the selection Pareto front is *bit-identical* across
//! thread counts for randomly generated workload shapes.
//!
//! [`TreeShape`] draws skewed wPST shapes — deep chains, wide fan-outs, hot
//! single subtrees — which are materialised into real IR modules, profiled,
//! and selected over by the reference engine (`threads = 1`) and by work
//! stealing at `threads ∈ {2, 3, 8}`. Any divergence (a reordered float summation, a
//! steal interleaving leaking into the front, a miscounted vertex) fails the
//! property with a replayable seed, and the harness shrinks the shape toward
//! a minimal reproduction.

use cayman_analysis::access::{trip_count, AccessAnalysis};
use cayman_analysis::memdep::{analyse_loop_deps, LoopDeps};
use cayman_analysis::profile::Profile;
use cayman_analysis::scev::Scev;
use cayman_analysis::wpst::Wpst;
use cayman_hls::inputs::FuncInputs;
use cayman_ir::builder::{FunctionBuilder, ModuleBuilder};
use cayman_ir::interp::Interp;
use cayman_ir::{ArrayId, Module, Operand, Type};
use cayman_select::{
    run_selection, CaymanModel, DesignCache, SelectOptions, SelectionResult, Solution,
};
use cayman_testkit::tree::{FuncShape, TreeShape, MAX_CASE_ITERATIONS};
use cayman_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Owned analysis state (module + wPST + profile + per-function analyses),
/// mirroring what the `cayman` facade computes for a real application.
struct App {
    module: Module,
    wpst: Wpst,
    profile: Profile,
    accesses: Vec<AccessAnalysis>,
    deps: Vec<Vec<LoopDeps>>,
    trips: Vec<Vec<f64>>,
    content_fps: Vec<u64>,
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
                content_fp: self.content_fps[f.index()],
            })
            .collect()
    }

    /// A one-off selection with Cayman's model and a fresh cache.
    fn select(&self, opts: &SelectOptions) -> SelectionResult {
        run_selection(
            &self.module,
            &self.wpst,
            &self.profile,
            &self.inputs(),
            opts,
            &CaymanModel(opts.model.clone()),
            &DesignCache::new(),
            None,
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
fn random_tree_shapes_select_identically_across_schedulers() {
    prop_check!(cases = 20, |rng| {
        let shape = TreeShape::arbitrary(rng);
        prop_assert!(
            shape.iterations() <= MAX_CASE_ITERATIONS,
            "generator broke its work bound: {} iterations",
            shape.iterations()
        );
        let app = App::analyse(build_module(&shape));
        let reference = app.select(&SelectOptions::default());
        prop_assert_eq!(reference.stats.scheduler, "seq");
        for threads in [2usize, 3, 8] {
            let par = app.select(&SelectOptions {
                threads,
                ..Default::default()
            });
            prop_assert_eq!(par.stats.scheduler, "steal");
            prop_assert!(
                fronts_identical(&reference.pareto, &par.pareto),
                "threads={threads} changed the front for {shape:?}"
            );
            prop_assert_eq!(par.visited, reference.visited);
            prop_assert_eq!(par.stats.pruned, reference.stats.pruned);
            prop_assert_eq!(par.configs_evaluated, reference.configs_evaluated);
        }
        Ok(())
    });
}
