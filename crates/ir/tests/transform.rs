//! Per-pass unit tests for the normalization pipeline, written against
//! textual IR fixtures: each test parses a small module exhibiting exactly
//! one rewrite opportunity, runs one pass (or the whole pipeline), and
//! checks both the structural rewrite and unchanged semantics.

use cayman_ir::instr::{Imm, Instr, Operand, Terminator};
use cayman_ir::interp::{Interp, Value};
use cayman_ir::transform::{
    normalize, Compact, ConstFold, Dce, Gvn, OptLevel, Pass, PassManager, SimplifyCfg,
};
use cayman_ir::Module;

fn parse(src: &str) -> Module {
    let m = Module::parse_text(src).expect("fixture parses");
    m.verify().expect("fixture verifies");
    m
}

/// Total placed instructions across all blocks of the entry function.
fn placed_instrs(m: &Module) -> usize {
    let f = &m.functions[0];
    f.block_ids().map(|b| f.block(b).instrs.len()).sum()
}

fn run_i64(m: &Module, args: &[Value]) -> Option<Value> {
    Interp::new(m).run(args).expect("runs").return_value
}

#[test]
fn simplify_cfg_folds_constant_branches_and_merges_chains() {
    let mut m = parse(
        "; module t
fn @main() -> i64 {
bb0: ; entry
  br true ? bb1 : bb2
bb1: ; taken
  ret 1
bb2: ; dead
  ret 2
}
",
    );
    assert!(SimplifyCfg.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    // Constant branch folded, dead block dropped, chain merged: one block
    // that returns the taken value directly.
    let f = &m.functions[0];
    assert_eq!(f.blocks.len(), 1);
    assert!(matches!(
        f.block(f.entry()).terminator(),
        Terminator::Ret(Some(Operand::Const(Imm::Int(1))))
    ));
    assert_eq!(run_i64(&m, &[]), Some(Value::I(1)));
    // Idempotent on the simplified module.
    assert!(!SimplifyCfg.run(&m.arrays, &mut m.functions[0]));
}

#[test]
fn simplify_cfg_prunes_phi_incomings_from_deleted_predecessors() {
    let mut m = parse(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  br false ? bb1 : bb2
bb1: ; dead
  br bb3
bb2: ; live
  br bb3
bb3: ; join
  %1 = phi i64 [bb1: 7], [bb2: %0]
  ret %1
}
",
    );
    assert!(SimplifyCfg.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    // bb1 died with the folded branch; its phi incoming must go with it,
    // and the then-single-incoming phi is forwarded through block merging.
    let f = &m.functions[0];
    assert_eq!(f.blocks.len(), 1);
    assert_eq!(run_i64(&m, &[Value::I(41)]), Some(Value::I(41)));
}

#[test]
fn simplify_cfg_dedupes_same_target_conditional_branches() {
    // `br %c ? bb1 : bb1` must become a plain `br bb1`, keeping the first
    // incoming of bb1's phi (the walker's `find` semantics).
    let mut m = parse(
        "; module t
fn @main(i1 %0) -> i64 {
bb0: ; entry
  br %0 ? bb1 : bb1
bb1: ; join
  %1 = phi i64 [bb0: 5], [bb0: 9]
  ret %1
}
",
    );
    let before = run_i64(&m, &[Value::B(false)]);
    assert!(SimplifyCfg.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    assert_eq!(run_i64(&m, &[Value::B(false)]), before);
    assert_eq!(run_i64(&m, &[Value::B(true)]), Some(Value::I(5)));
}

#[test]
fn constfold_evaluates_constant_expressions() {
    let mut m = parse(
        "; module t
fn @main() -> i64 {
bb0: ; entry
  %0 = add i64 2, 3
  %1 = mul i64 %0, 4
  %2 = smax i64 %1, 7
  ret %2
}
",
    );
    assert!(ConstFold.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    let f = &m.functions[0];
    assert!(matches!(
        f.block(f.entry()).terminator(),
        Terminator::Ret(Some(Operand::Const(Imm::Int(20))))
    ));
    assert_eq!(run_i64(&m, &[]), Some(Value::I(20)));
}

#[test]
fn constfold_leaves_trapping_constants_alone() {
    // `sdiv 1, 0` errors at runtime; folding it away (or into anything)
    // would change observable behavior, so it must survive and still trap.
    let mut m = parse(
        "; module t
fn @main() -> i64 {
bb0: ; entry
  %0 = sdiv i64 1, 0
  ret %0
}
",
    );
    assert!(!ConstFold.run(&m.arrays, &mut m.functions[0]));
    let e = Interp::new(&m).run(&[]).expect_err("still traps");
    assert_eq!(e.message, "integer division by zero");
}

#[test]
fn constfold_forwards_single_value_phis() {
    let mut m = parse(
        "; module t
fn @main(i1 %0) -> i64 {
bb0: ; entry
  br %0 ? bb1 : bb2
bb1: ; a
  br bb3
bb2: ; b
  br bb3
bb3: ; join
  %1 = phi i64 [bb1: 11], [bb2: 11]
  %2 = add i64 %1, 1
  ret %2
}
",
    );
    assert!(ConstFold.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    // The all-same phi's uses collapse to the constant.
    let f = &m.functions[0];
    let adds_const = f.block_ids().any(|b| {
        f.block(b).instrs.iter().any(|&i| {
            matches!(
                f.instr(i),
                Instr::Binary {
                    lhs: Operand::Const(Imm::Int(11)),
                    ..
                }
            )
        })
    });
    assert!(
        adds_const,
        "add should now read the folded constant:\n{}",
        m.to_text()
    );
    assert_eq!(run_i64(&m, &[Value::B(true)]), Some(Value::I(12)));
}

#[test]
fn gvn_deduplicates_dominating_address_computations() {
    let mut m = parse(
        "; module t
array f64 @A [8]

fn @main(i64 %0) -> f64 {
bb0: ; entry
  %1 = gep @A[%0]
  %2 = load f64, %1
  br bb1
bb1: ; again
  %3 = gep @A[%0]
  %4 = load f64, %3
  %5 = fadd f64 %2, %4
  ret %5
}
",
    );
    assert_eq!(placed_instrs(&m), 5);
    assert!(Gvn.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    // The dominated duplicate gep is gone; the loads (never value-numbered:
    // memory may change between them) both read through the surviving one.
    assert_eq!(placed_instrs(&m), 4);
    let f = &m.functions[0];
    let geps = f
        .block_ids()
        .flat_map(|b| f.block(b).instrs.iter())
        .filter(|&&i| matches!(f.instr(i), Instr::Gep { .. }))
        .count();
    assert_eq!(geps, 1);
    let mut interp = Interp::new(&m);
    let a = m.array_ids().next().expect("array");
    interp.memory.set_f64(a, 3, 2.5);
    let out = interp.run(&[Value::I(3)]).expect("runs").return_value;
    assert_eq!(out, Some(Value::F(5.0)));
}

#[test]
fn gvn_does_not_merge_across_sibling_branches() {
    // The same expression in two sibling arms: neither dominates the other,
    // so both must survive.
    let mut m = parse(
        "; module t
fn @main(i1 %0, i64 %1) -> i64 {
bb0: ; entry
  br %0 ? bb1 : bb2
bb1: ; a
  %2 = add i64 %1, 1
  br bb3
bb2: ; b
  %3 = add i64 %1, 1
  br bb3
bb3: ; join
  %4 = phi i64 [bb1: %2], [bb2: %3]
  ret %4
}
",
    );
    assert!(!Gvn.run(&m.arrays, &mut m.functions[0]));
    assert_eq!(placed_instrs(&m), 3);
}

#[test]
fn dce_removes_dead_trap_free_code_but_keeps_potential_traps() {
    let mut m = parse(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = add i64 %0, 1
  %2 = mul i64 %1, %1
  %3 = sdiv i64 1, %0
  ret %0
}
",
    );
    assert!(Dce.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    // %1/%2 are dead and provably trap-free → gone. %3 is dead but divides
    // by a runtime value → must stay and still trap on zero.
    assert_eq!(placed_instrs(&m), 1);
    assert_eq!(run_i64(&m, &[Value::I(7)]), Some(Value::I(7)));
    let e = Interp::new(&m)
        .run(&[Value::I(0)])
        .expect_err("still traps");
    assert_eq!(e.message, "integer division by zero");
}

#[test]
fn dce_keeps_stores_and_calls() {
    let mut m = parse(
        "; module t
array i64 @A [4]

fn @helper() -> i64 {
bb0: ; entry
  %0 = gep @A[0]
  store i64 9, %0
  ret 0
}

fn @main() -> i64 {
bb0: ; entry
  %0 = call i64 @helper()
  %1 = gep @A[0]
  %2 = load i64, %1
  ret %2
}
",
    );
    // The call's result is dead but the callee stores; the store itself has
    // no result at all. Neither may be deleted.
    for f in &mut m.functions {
        Dce.run(&m.arrays, f);
    }
    m.verify().expect("still verifies");
    assert_eq!(run_i64(&m, &[]), Some(Value::I(9)));
}

#[test]
fn compact_rebuilds_the_arena_after_unlinking() {
    let mut m = parse(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = add i64 %0, 2
  %2 = add i64 %0, 2
  %3 = add i64 %1, %2
  ret %3
}
",
    );
    // GVN unlinks the duplicate but leaves it in the arena...
    assert!(Gvn.run(&m.arrays, &mut m.functions[0]));
    let arena_before = m.functions[0].instrs.len();
    assert_eq!(arena_before, 3);
    assert_eq!(placed_instrs(&m), 2);
    // ...and Compact renumbers it away.
    assert!(Compact.run(&m.arrays, &mut m.functions[0]));
    m.verify().expect("still verifies");
    assert_eq!(m.functions[0].instrs.len(), 2);
    assert_eq!(placed_instrs(&m), 2);
    assert_eq!(run_i64(&m, &[Value::I(5)]), Some(Value::I(14)));
    // Nothing left to drop.
    assert!(!Compact.run(&m.arrays, &mut m.functions[0]));
}

#[test]
fn pass_manager_reports_stats_and_reaches_a_fixed_point() {
    let mut m = parse(
        "; module t
fn @main(i64 %0) -> i64 {
bb0: ; entry
  %1 = add i64 2, 3
  %2 = add i64 %0, %1
  %3 = add i64 %0, %1
  %4 = add i64 %2, %3
  br true ? bb1 : bb2
bb1: ; live
  ret %4
bb2: ; dead
  ret 0
}
",
    );
    let before = run_i64(&m, &[Value::I(10)]);
    let mut main = m.functions[0].clone();
    let stats = PassManager::standard()
        .verify_each_pass(true)
        .run(&m, &mut main)
        .expect("pipeline verifies between passes");
    m.functions[0] = main;
    m.verify().expect("result verifies");
    assert_eq!(run_i64(&m, &[Value::I(10)]), before);

    assert!(stats.total_changes() > 0);
    assert!(stats.iterations >= 2, "fixed point needs a no-change sweep");
    assert!(stats.verify_runs >= 2);
    let line = stats.to_string();
    for pass in ["simplify-cfg", "constfold", "gvn", "dce", "compact"] {
        assert!(line.contains(pass), "missing `{pass}` in `{line}`");
    }
    assert!(line.starts_with("normalize:"), "{line}");

    // Re-running the whole pipeline is a no-op.
    let again = PassManager::standard()
        .run(&m, &mut m.functions[0].clone())
        .expect("no verify");
    assert_eq!(again.total_changes(), 0);
}

#[test]
fn normalize_o0_is_identity_and_o1_shrinks() {
    let src = "; module t
fn @main() -> i64 {
bb0: ; entry
  %0 = add i64 20, 1
  %1 = mul i64 %0, 2
  ret %1
}
";
    let mut m0 = parse(src);
    let stats0 = normalize(&mut m0, OptLevel::O0, true).expect("O0");
    assert_eq!(stats0.iterations, 0);
    assert_eq!(m0.to_text(), parse(src).to_text());

    let mut m1 = parse(src);
    let stats1 = normalize(&mut m1, OptLevel::O1, true).expect("O1");
    assert!(stats1.total_changes() > 0);
    assert_eq!(placed_instrs(&m1), 0);
    assert_eq!(run_i64(&m1, &[]), Some(Value::I(42)));
}
