//! The pass driver's skip rule changes no output.
//!
//! [`PassManager::run`] skips a pass that has run since the last change by
//! any pass that feeds it. Here its result is compared, bit for bit, with a
//! reference loop that runs every pass on every sweep until a whole sweep
//! changes nothing, over seeded random programs and every function of the
//! workload corpus; afterwards every pass must report no change.
//!
//! Each "feeds" edge of the `-O1` pipeline that some function needs has a
//! hand-written fixture below, in which the fed pass has work only because
//! of a change made after its last run. Dropping the edge from the
//! declaration leaves that work undone, and the fixture's comparison with
//! the reference fails. The one declared edge without a fixture is
//! gvn → compact: gvn re-runs only after simplify-cfg or constfold changed
//! the function in the same sweep, and compact is then dirty already (fed
//! by simplify-cfg directly, or by dce, which deletes the phi whose fold
//! gave gvn its work).

use cayman_ir::fingerprint_function;
use cayman_ir::transform::PassManager;
use cayman_ir::{FuncId, Function, Module};
use cayman_testkit::program::arbitrary_module;
use cayman_testkit::prop_check;

/// The driver's sweep bound.
const MAX_SWEEPS: u32 = 10;

/// Runs every pass of `pipeline` on every sweep until a sweep changes
/// nothing: the loop the skip rule must agree with.
fn reference(pipeline: &PassManager, module: &Module, func: &mut Function) {
    for _ in 0..MAX_SWEEPS {
        let mut any = false;
        for pass in pipeline.passes() {
            any |= pass.run(&module.arrays, func);
        }
        if !any {
            return;
        }
    }
}

/// Whether `a` and `b` are the same function bit for bit: the fingerprint
/// reads every immediate by its bits, the debug text every field.
fn identical(a: &Function, b: &Function) -> bool {
    fingerprint_function(a) == fingerprint_function(b)
        && format!("{:?}", a.clone()) == format!("{:?}", b.clone())
}

/// Normalizes function `f` of `module` with the driver and with the
/// reference loop, and checks that both agree and that no pass has work
/// left. Returns the driver's result.
fn check(module: &Module, f: FuncId) -> Result<Function, String> {
    let pipeline = PassManager::standard();
    let name = &module.function(f).name;
    let mut driven = module.function(f).clone();
    pipeline
        .run(module, &mut driven)
        .map_err(|e| e.to_string())?;
    let mut swept = module.function(f).clone();
    reference(&pipeline, module, &mut swept);
    if !identical(&driven, &swept) {
        return Err(format!(
            "`{name}`: the driver and the reference loop disagree\n  driver:    {driven:?}\n  reference: {swept:?}"
        ));
    }
    for pass in pipeline.passes() {
        let mut again = driven.clone();
        if pass.run(&module.arrays, &mut again) {
            return Err(format!(
                "`{name}`: `{}` still changes the normalized function",
                pass.name()
            ));
        }
    }
    Ok(driven)
}

#[test]
fn the_driver_matches_the_reference_loop_on_random_programs() {
    prop_check!(cases = 64, |rng| {
        let m = arbitrary_module(rng);
        for f in m.function_ids() {
            check(&m, f)?;
        }
        Ok(())
    });
}

#[test]
fn the_driver_matches_the_reference_loop_on_the_corpus() {
    for w in cayman_workloads::full() {
        for f in w.module.function_ids() {
            if let Err(e) = check(&w.module, f) {
                panic!("{}: {e}", w.name);
            }
        }
    }
}

/// Checks fixture `src` (one function) and returns it normalized.
fn normalized(src: &str) -> Module {
    let mut m = Module::parse_text(src).expect("fixture parses");
    m.verify().expect("fixture verifies");
    let f = check(&m, FuncId(0)).unwrap_or_else(|e| panic!("{e}"));
    m.functions[0] = f;
    m.verify().expect("normalized fixture verifies");
    m
}

fn normalized_text(src: &str) -> String {
    normalized(src).to_text()
}

/// constfold → simplify-cfg → constfold. Constfold folds `%1` into the
/// entry branch; simplify-cfg then deletes `bb4`, which leaves the join's
/// phi with two equal incomings for constfold to fold.
#[test]
fn a_folded_branch_condition_feeds_simplify_cfg_and_its_pruned_phi_constfold() {
    let text = normalized_text(
        "; module t
fn @main(i1 %0) -> i64 {
bb0: ; entry
  %1 = cmp lt i64 1, 2
  br %1 ? bb1 : bb4
bb1: ; inner
  br %0 ? bb2 : bb3
bb2: ; left
  br bb5
bb3: ; right
  br bb5
bb4: ; dead
  br bb5
bb5: ; join
  %2 = phi i64 [bb2: 5], [bb3: 5], [bb4: 7]
  ret %2
}
",
    );
    assert!(!text.contains("phi") && text.contains("ret 5"), "{text}");
}

/// simplify-cfg → gvn. Once the entry branch folds, the chain merges into
/// one block, where the join's `add` repeats `%2`.
#[test]
fn a_merged_chain_feeds_gvn() {
    let text = normalized_text(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = cmp lt i64 1, 2
  br %1 ? bb1 : bb2
bb1: ; then
  %2 = add i64 %0, 1
  br bb3
bb2: ; else
  br bb3
bb3: ; join
  %3 = phi i64 [bb1: %2], [bb2: 0]
  %4 = add i64 %0, 1
  %5 = mul i64 %3, %4
  ret %5
}
",
    );
    assert_eq!(text.matches("add").count(), 1, "{text}");
}

/// simplify-cfg → dce. Deleting `bb2` takes the phi's only use of `%1`.
#[test]
fn a_deleted_phi_incoming_feeds_dce() {
    let text = normalized_text(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = add i64 %0, 5
  %2 = cmp lt i64 1, 2
  br %2 ? bb1 : bb2
bb1: ; then
  br bb3
bb2: ; else
  br bb3
bb3: ; join
  %3 = phi i64 [bb1: 1], [bb2: %1]
  ret %3
}
",
    );
    assert!(!text.contains("add"), "{text}");
}

/// simplify-cfg → compact. Deleting `bb2` unplaces its `add`, and the
/// merge unplaces the phi; no other pass changes anything after them.
#[test]
fn a_deleted_block_feeds_compact() {
    let m = normalized(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = cmp lt i64 1, 2
  br %1 ? bb1 : bb2
bb1: ; then
  br bb3
bb2: ; else
  %2 = add i64 %0, 3
  br bb3
bb3: ; join
  %3 = phi i64 [bb1: %0], [bb2: %2]
  ret %3
}
",
    );
    assert!(m.functions[0].instrs.is_empty(), "{}", m.to_text());
}

/// gvn → constfold → gvn. Gvn makes the phi's incomings equal (`%3` is
/// `%2`); constfold folds the phi to `%2`, which makes `%6` repeat `%4`.
#[test]
fn an_equalized_phi_feeds_constfold_and_its_fold_gvn() {
    let text = normalized_text(
        "; module t
fn @main(i64 %0, i1 %1) -> i64 {
bb0: ; entry
  %2 = add i64 %0, 1
  %3 = add i64 %0, 1
  %4 = mul i64 %2, 3
  br %1 ? bb1 : bb2
bb1: ; then
  br bb3
bb2: ; else
  br bb3
bb3: ; join
  %5 = phi i64 [bb1: %2], [bb2: %3]
  %6 = mul i64 %5, 3
  %7 = add i64 %4, %6
  ret %7
}
",
    );
    assert!(!text.contains("phi"), "{text}");
    assert_eq!(text.matches("mul").count(), 1, "{text}");
}

/// gvn → constfold → dce → compact. As above, but nothing repeats after
/// the fold: dce deletes the dead phi, and only dce's change leaves work
/// for compact.
#[test]
fn a_folded_phi_feeds_dce_and_its_deletion_compact() {
    let text = normalized_text(
        "; module t
fn @main(i64 %0, i1 %1) -> i64 {
bb0: ; entry
  %2 = add i64 %0, 1
  %3 = add i64 %0, 1
  br %1 ? bb1 : bb2
bb1: ; then
  br bb3
bb2: ; else
  br bb3
bb3: ; join
  %4 = phi i64 [bb1: %2], [bb2: %3]
  %5 = mul i64 %4, 3
  ret %5
}
",
    );
    assert!(!text.contains("phi"), "{text}");
}
