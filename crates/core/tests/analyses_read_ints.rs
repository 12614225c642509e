//! The incremental store keys verification, structure, dataflow and trip
//! counts on a function's ints-print (`FunctionFps::ints`), which hashes
//! an integer immediate by value and a float or bool immediate by kind.
//! That is sound only if none of those analyses reads a float or bool
//! immediate's value. This metamorphic test checks it over the corpus.

use cayman::analysis::access::{static_trip_count, AccessAnalysis};
use cayman::analysis::ctx::FuncCtx;
use cayman::analysis::memdep::analyse_loop_deps;
use cayman::analysis::regions::RegionTree;
use cayman::analysis::scev::Scev;
use cayman::hls::inputs::FuncPrints;
use cayman::ir::instr::{Imm, Operand};
use cayman::ir::transform::{normalize, OptLevel, PassManager};
use cayman::ir::{
    fingerprint_function, fingerprint_function_pair, FuncId, Function, Module, ValueId,
};
use cayman::{AnalyseOptions, Application};

/// Rewrites every float and bool immediate of `f` to another value of the
/// same kind; returns how many it rewrote.
fn rewrite_floats_and_bools(f: &mut Function) -> usize {
    let mut rewritten = 0;
    let mut rewrite = |op: &mut Operand| {
        if let Operand::Const(imm) = op {
            *imm = match *imm {
                Imm::Int(_) => return,
                Imm::Float(x) => Imm::Float(if x == 1.0 { 2.0 } else { 1.0 }),
                Imm::Bool(b) => Imm::Bool(!b),
            };
            rewritten += 1;
        }
    };
    for instr in &mut f.instrs {
        instr.for_each_operand_mut(&mut rewrite);
    }
    for block in &mut f.blocks {
        if let Some(term) = &mut block.term {
            term.for_each_operand_mut(&mut rewrite);
        }
    }
    rewritten
}

/// Everything the ints-print keys, of function `f` of `m`, as a printable
/// record: the CFG bundle, the region tree, the structural and dataflow
/// prints, the accesses, the loop dependences, the affine form of every
/// SSA value and every loop's static trip count.
fn analyses(m: &Module, f: FuncId) -> Vec<String> {
    let func = m.function(f);
    let ctx = FuncCtx::compute(func);
    let tree = RegionTree::build(func, &ctx);
    let structure = FuncPrints::structure(func, &ctx);
    let mut scev = Scev::new(func, &ctx);
    let accesses = AccessAnalysis::run(m, func, &ctx, &mut scev);
    let deps = analyse_loop_deps(func, &ctx, &mut scev, &accesses);
    let dataflow = FuncPrints::dataflow(func.blocks.len(), &accesses, &deps);
    let affine: Vec<_> = (0..func.values.len())
        .map(|v| scev.analyse(ValueId(v as u32)))
        .collect();
    let trips: Vec<_> = ctx
        .forest
        .ids()
        .map(|l| static_trip_count(func, &ctx, l))
        .collect();
    vec![
        format!("ctx {ctx:?}"),
        format!("regions {tree:?}"),
        format!("structure {structure:?}"),
        format!("accesses {accesses:?}"),
        format!("deps {deps:?}"),
        format!("dataflow {dataflow:?}"),
        format!("affine {affine:?}"),
        format!("trips {trips:?}"),
    ]
}

/// Checks one module against its float- and bool-rewritten copy: the
/// verifier's outcome and every function's analyses are the same, every
/// ints-print is the same, and every rewritten function's bit print moves.
/// Returns how many functions had an immediate rewritten.
fn check(what: &str, m: &Module) -> usize {
    let mut rewritten = m.clone();
    let mut moved = 0;
    for (old, new) in m.functions.iter().zip(&mut rewritten.functions) {
        let n = rewrite_floats_and_bools(new);
        let (a, b) = (
            fingerprint_function_pair(old),
            fingerprint_function_pair(new),
        );
        assert_eq!(a.ints, b.ints, "{what}: `{}` ints-print moved", old.name);
        if n > 0 {
            assert_ne!(a.bits, b.bits, "{what}: `{}` bits did not move", old.name);
            moved += 1;
        }
    }
    assert_eq!(
        format!("{:?}", m.verify()),
        format!("{:?}", rewritten.verify()),
        "{what}: verify outcome"
    );
    for f in m.function_ids() {
        let (want, got) = (analyses(m, f), analyses(&rewritten, f));
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w, g, "{what}: `{}`", m.function(f).name);
        }
    }
    moved
}

/// Over every function of all 132 workloads, raw, normalized at `-O1` and
/// as its `-O2` analysis shadow, rewriting every float and bool immediate
/// to another value of the same kind leaves the verifier's outcome, the
/// CFG bundle, the region tree, the structural and dataflow prints, the
/// accesses, the loop dependences, every value's affine form and every
/// static trip count unchanged; the ints-print stays and the bit-exact
/// fingerprint moves.
#[test]
fn analyses_read_float_and_bool_immediates_by_kind_only() {
    let mut functions = 0usize;
    let mut moved = 0usize;
    let workloads = cayman::workloads::full();
    assert_eq!(workloads.len(), 132);
    for w in workloads {
        let raw = &w.module;
        assert!(raw.verify().is_ok(), "{}", w.name);
        let mut o1 = raw.clone();
        normalize(&mut o1, OptLevel::O1, false).expect("normalizes");
        let mut shadow = o1.clone();
        for func in &mut shadow.functions {
            PassManager::address_canon()
                .run(&o1, func)
                .expect("address_canon never verifies, so never fails");
        }
        moved += check(&format!("{} raw", w.name), raw);
        moved += check(&format!("{} -O1", w.name), &o1);
        moved += check(&format!("{} -O2 shadow", w.name), &shadow);
        functions += 3 * raw.functions.len();
    }
    assert!(
        moved > 300,
        "{moved} of {functions} functions had a float or bool"
    );
}

/// The production path normalizes exactly like the public one: over all
/// 132 workloads, every function of the module `Application::analyse_with`
/// assembles from its normalize queries prints the same as that function
/// after `normalize` at `-O1`.
#[test]
fn analyse_normalizes_every_function_like_normalize() {
    for w in cayman::workloads::full() {
        let mut o1 = w.module.clone();
        normalize(&mut o1, OptLevel::O1, false).expect("normalizes");
        let app = Application::analyse_with(
            w.module.clone(),
            Some(w.memory()),
            &AnalyseOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: analyse failed: {e}", w.name));
        let prints = |m: &Module| {
            m.functions
                .iter()
                .map(fingerprint_function)
                .collect::<Vec<_>>()
        };
        assert_eq!(prints(&app.module), prints(&o1), "{}", w.name);
    }
}
