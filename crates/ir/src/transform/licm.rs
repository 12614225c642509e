//! Loop-invariant code motion for pure scalar arithmetic.
//!
//! Moves computations whose operands are defined outside a loop from the
//! loop body into the loop's preheader. The pass is deliberately
//! **CFG-preserving**: it never creates blocks or edits terminators, only
//! re-homes instructions between existing blocks (loops without a unique
//! out-of-loop header predecessor are skipped). `InstrId`s and `ValueId`s
//! are untouched, which is what lets `cayman-core` run this pass on an
//! analysis shadow of a function and carry the results back by id.
//!
//! ## Trap safety
//!
//! The preheader executes even when the loop body does not (a zero-trip
//! loop), so only *total* operations may move: every integer/float binary
//! except `div`/`rem` with a possibly-zero divisor, unary ops, compares and
//! selects. `gep` stays put — the interpreter bounds-checks at gep
//! evaluation time, so hoisting one could introduce an out-of-bounds trap
//! the original program never reached. Loads, stores, calls and phis are
//! never moved.

use super::Pass;
use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{BinOp, Imm, Instr, Operand};
use crate::loops::{LoopForest, LoopId};
use crate::module::{ArrayDecl, BlockId, Function, ValueDef, ValueId};
use std::collections::HashSet;

/// Hoists loop-invariant pure arithmetic into loop preheaders.
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        licm_function(func)
    }
}

/// Whether `instr` may be recomputed speculatively: pure and incapable of
/// trapping on any operand values.
fn total_pure(instr: &Instr) -> bool {
    match instr {
        Instr::Binary { op, rhs, .. } => match op {
            // Division traps on a zero divisor; a non-zero constant divisor
            // is provably safe (`wrapping_div`/`wrapping_rem` are total).
            BinOp::Div | BinOp::Rem => matches!(rhs, Operand::Const(Imm::Int(c)) if *c != 0),
            _ => true,
        },
        Instr::Unary { .. } | Instr::Cmp { .. } | Instr::Select { .. } => true,
        // Gep bounds-checks eagerly; everything else has effects or is
        // position-sensitive.
        _ => false,
    }
}

fn licm_function(func: &mut Function) -> bool {
    let cfg = Cfg::compute(func);
    let dom = DomTree::dominators(func, &cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);

    // Innermost loops first: an instruction hoisted into an inner preheader
    // that is still inside an outer loop gets another chance below.
    let mut loops: Vec<LoopId> = forest.ids().collect();
    loops.sort_by_key(|&l| std::cmp::Reverse(forest.get(l).depth));

    let mut changed = false;
    for l in loops {
        let lp = forest.get(l);
        // Unique out-of-loop predecessor of the header = the hoist target.
        let outside: Vec<BlockId> = cfg
            .preds(lp.header)
            .iter()
            .copied()
            .filter(|p| !lp.blocks.contains(p))
            .collect();
        let [pre] = outside.as_slice() else {
            continue;
        };
        let pre = *pre;

        let in_loop: HashSet<BlockId> = lp.blocks.iter().copied().collect();
        // Results of instructions already hoisted from this loop count as
        // defined outside it, so invariant chains move together.
        let mut hoisted_vals: HashSet<ValueId> = HashSet::new();
        let mut moved: Vec<crate::module::InstrId> = Vec::new();

        // Visit loop blocks in RPO so producers are considered before their
        // in-loop consumers.
        for &b in cfg.rpo.iter().filter(|b| in_loop.contains(b)) {
            for &iid in &func.block(b).instrs {
                let instr = func.instr(iid);
                if !total_pure(instr) {
                    continue;
                }
                let mut invariant = true;
                instr.for_each_operand(|op| {
                    if let Operand::Value(v) = op {
                        if hoisted_vals.contains(&v) {
                            return;
                        }
                        let def_in_loop = match func.values[v.index()] {
                            ValueDef::Instr(i) => func
                                .containing_block(i)
                                .is_some_and(|db| in_loop.contains(&db)),
                            ValueDef::Param(..) => false,
                        };
                        if def_in_loop {
                            invariant = false;
                        }
                    }
                });
                if invariant {
                    moved.push(iid);
                    if let Some(v) = func.result_of(iid) {
                        hoisted_vals.insert(v);
                    }
                }
            }
        }

        if moved.is_empty() {
            continue;
        }
        let moved_set: HashSet<crate::module::InstrId> = moved.iter().copied().collect();
        for &b in &lp.blocks {
            func.blocks[b.index()]
                .instrs
                .retain(|i| !moved_set.contains(i));
        }
        // Append in discovery order (producers first) ahead of the
        // preheader's terminator.
        func.blocks[pre.index()].instrs.extend(moved);
        func.invalidate_block_map();
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::Interp;
    use crate::transform::Pass;
    use crate::{FuncId, Type};

    /// `src[i][j] = (i*7 + j) % 13` — the `i*7` multiply is invariant in the
    /// inner loop, the `%` depends on `j` and must stay.
    fn nested_kernel() -> crate::Module {
        let mut mb = ModuleBuilder::new("t");
        let src = mb.array("src", Type::I64, &[8, 4]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let seven = fb.iconst(7);
                    let t = fb.mul(i, seven);
                    let s = fb.add(t, j);
                    let thirteen = fb.iconst(13);
                    let v = fb.srem(s, thirteen);
                    fb.store_idx_ty(src, &[i, j], v, Type::I64);
                });
            });
            fb.ret(None);
        });
        mb.finish()
    }

    fn block_of_mul(m: &crate::Module) -> crate::BlockId {
        let f = m.function(FuncId(0));
        for b in f.block_ids() {
            for &iid in &f.block(b).instrs {
                if matches!(f.instr(iid), Instr::Binary { op: BinOp::Mul, .. }) {
                    return b;
                }
            }
        }
        panic!("mul not found");
    }

    #[test]
    fn hoists_inner_invariant_multiply() {
        let mut m = nested_kernel();
        let before = block_of_mul(&m);
        let mem_before = {
            let mut i = Interp::new(&m);
            i.run(&[]).expect("runs");
            i.memory.cells.clone()
        };
        assert!(Licm.run(&m.arrays, &mut m.functions[0]));
        m.verify().expect("still verifies");
        let after = block_of_mul(&m);
        assert_ne!(before, after, "i*7 left the inner body");
        // Observable behaviour unchanged.
        let mut i = Interp::new(&m);
        i.run(&[]).expect("still runs");
        assert_eq!(i.memory.cells, mem_before);
        // Idempotent.
        assert!(!Licm.run(&m.arrays, &mut m.functions[0]));
    }

    #[test]
    fn keeps_loop_variant_ops_and_memory_ops() {
        let mut m = nested_kernel();
        Licm.run(&m.arrays, &mut m.functions[0]);
        let f = m.function(FuncId(0));
        // The srem (depends on j) and the store stay in a loop block of the
        // inner loop.
        let cfg = Cfg::compute(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        let inner = forest
            .ids()
            .find(|&l| forest.get(l).depth == 2)
            .expect("inner loop");
        let inner_blocks: HashSet<_> = forest.get(inner).blocks.iter().copied().collect();
        let mut srem_in = false;
        let mut store_in = false;
        for &b in &inner_blocks {
            for &iid in &f.block(b).instrs {
                match f.instr(iid) {
                    Instr::Binary { op: BinOp::Rem, .. } => srem_in = true,
                    Instr::Store { .. } => store_in = true,
                    _ => {}
                }
            }
        }
        assert!(srem_in, "j-dependent rem must stay");
        assert!(store_in, "stores never move");
    }

    #[test]
    fn does_not_hoist_possibly_trapping_division() {
        // x / d with a loop-invariant but non-constant divisor: the loop
        // body never executes (trip guarded at 0 iterations would still run
        // the preheader), so the division must not move.
        let mut mb = ModuleBuilder::new("t");
        let out = mb.array("out", Type::I64, &[8]);
        mb.function("main", &[], None, |fb| {
            let zero = fb.iconst(0);
            let d = fb.add(zero, zero); // d = 0, opaque to this pass
            fb.counted_loop(0, 0, 1, |fb, i| {
                let hundred = fb.iconst(100);
                let q = fb.sdiv(hundred, d);
                fb.store_idx_ty(out, &[i], q, Type::I64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        let ok_before = Interp::new(&m).run(&[]).is_ok();
        Licm.run(&m.arrays, &mut m.functions[0]);
        let ok_after = Interp::new(&m).run(&[]).is_ok();
        assert_eq!(ok_before, ok_after, "no trap introduced");
        assert!(ok_after, "zero-trip loop never divides");
    }

    #[test]
    fn invariant_chain_moves_together() {
        // t = i*4; u = t+3 inside the inner loop: both invariant, u depends
        // on t — they must hoist as a unit, producer first.
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("a", Type::I64, &[8, 4]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let four = fb.iconst(4);
                    let three = fb.iconst(3);
                    let t = fb.mul(i, four);
                    let u = fb.add(t, three);
                    let v = fb.add(u, j);
                    fb.store_idx_ty(a, &[i, j], v, Type::I64);
                });
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        assert!(Licm.run(&m.arrays, &mut m.functions[0]));
        m.verify().expect("verifies");
        let mut i = Interp::new(&m);
        i.run(&[]).expect("runs");
    }
}
