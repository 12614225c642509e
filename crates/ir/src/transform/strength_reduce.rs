//! Strength reduction and canonicalization of integer address arithmetic.
//!
//! Rewrites integer `Binary` instructions **in place** — same `InstrId`,
//! same result `ValueId`, no new instructions, no deletions — so the pass
//! composes with [`super::licm::Licm`] on analysis shadows where instruction
//! identity must survive. Four wrapping-exact rewrites:
//!
//! 1. `shl x, c` (constant `0 <= c <= 62`) → `mul x, 1 << c`. SCEV only
//!    folds shifts by constants below 32 into [`LinExpr`] strides; as a
//!    multiply the full range becomes affine.
//! 2. `sub x, c` → `add x, -c` (two's-complement negation, exact even for
//!    `i64::MIN`), collapsing mixed add/sub index chains into adds.
//! 3. Constant-to-the-right normalization for commutative `add`/`mul`:
//!    `add c, x` → `add x, c`.
//! 4. Reassociation with constant folding: `add (add x, c1), c2` →
//!    `add x, c1+c2` and `mul (mul x, c1), c2` → `mul x, c1*c2` (the inner
//!    op is left for DCE). Wrapping arithmetic is associative mod 2^64, and
//!    `i32` narrowing commutes with it mod 2^32, so both widths are exact.
//!
//! Float ops are never touched (FP arithmetic is neither associative nor
//! commutative under rounding in general); `i1`/pointer ops are skipped.
//!
//! [`LinExpr`]: ../../../cayman_analysis/scev/struct.LinExpr.html

use super::Pass;
use crate::instr::{BinOp, Imm, Instr, Operand};
use crate::module::{ArrayDecl, Function, ValueDef};
use crate::types::Type;

/// Strength-reduces and canonicalizes integer address arithmetic in place.
pub struct StrengthReduce;

impl Pass for StrengthReduce {
    fn name(&self) -> &'static str {
        "strength-reduce"
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        reduce_function(func)
    }
}

fn int_ty(ty: Type) -> bool {
    matches!(ty, Type::I32 | Type::I64)
}

fn const_int(op: Operand) -> Option<i64> {
    match op {
        Operand::Const(Imm::Int(c)) => Some(c),
        _ => None,
    }
}

/// The defining `Binary{op, lhs, rhs}` of `op`erand, when it is the result
/// of an integer binary of the wanted opcode and type.
fn def_binary(func: &Function, operand: Operand, want: BinOp, ty: Type) -> Option<(Operand, i64)> {
    let Operand::Value(v) = operand else {
        return None;
    };
    let ValueDef::Instr(i) = func.values[v.index()] else {
        return None;
    };
    match *func.instr(i) {
        Instr::Binary {
            op,
            ty: ity,
            lhs,
            rhs,
        } if op == want && ity == ty => Some((lhs, const_int(rhs)?)),
        _ => None,
    }
}

/// One rewrite step for a single instruction; returns the replacement.
fn reduce_instr(func: &Function, instr: &Instr) -> Option<Instr> {
    let &Instr::Binary { op, ty, lhs, rhs } = instr else {
        return None;
    };
    if !int_ty(ty) {
        return None;
    }
    match op {
        // shl x, c  →  mul x, 1<<c   (identical mod 2^64 for 0 <= c <= 62)
        BinOp::Shl => {
            let c = const_int(rhs)?;
            if !(0..=62).contains(&c) {
                return None;
            }
            Some(Instr::Binary {
                op: BinOp::Mul,
                ty,
                lhs,
                rhs: Operand::int(1i64 << c),
            })
        }
        // sub x, c  →  add x, -c
        BinOp::Sub => {
            let c = const_int(rhs)?;
            Some(Instr::Binary {
                op: BinOp::Add,
                ty,
                lhs,
                rhs: Operand::int(c.wrapping_neg()),
            })
        }
        BinOp::Add | BinOp::Mul => {
            // add c, x  →  add x, c (and likewise for mul)
            if const_int(lhs).is_some() && const_int(rhs).is_none() {
                return Some(Instr::Binary {
                    op,
                    ty,
                    lhs: rhs,
                    rhs: lhs,
                });
            }
            // add (add x, c1), c2  →  add x, c1+c2 (inner left for DCE)
            let c2 = const_int(rhs)?;
            let (x, c1) = def_binary(func, lhs, op, ty)?;
            let folded = match op {
                BinOp::Add => c1.wrapping_add(c2),
                _ => c1.wrapping_mul(c2),
            };
            Some(Instr::Binary {
                op,
                ty,
                lhs: x,
                rhs: Operand::int(folded),
            })
        }
        _ => None,
    }
}

fn reduce_function(func: &mut Function) -> bool {
    // Two-phase: pattern-match against an immutable view (reassociation
    // reads *other* instructions), then apply. Only placed instructions are
    // visited, in block order, for determinism.
    let mut rewrites: Vec<(usize, Instr)> = Vec::new();
    for b in func.block_ids() {
        for &iid in &func.block(b).instrs {
            if let Some(new) = reduce_instr(func, func.instr(iid)) {
                rewrites.push((iid.index(), new));
            }
        }
    }
    let changed = !rewrites.is_empty();
    for (idx, new) in rewrites {
        func.instrs[idx] = new;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::Interp;
    use crate::transform::Pass;
    use crate::FuncId;

    fn binaries(m: &crate::Module) -> Vec<(BinOp, Operand, Operand)> {
        let f = m.function(FuncId(0));
        let mut out = Vec::new();
        for b in f.block_ids() {
            for &iid in &f.block(b).instrs {
                if let Instr::Binary { op, lhs, rhs, .. } = *f.instr(iid) {
                    out.push((op, lhs, rhs));
                }
            }
        }
        out
    }

    #[test]
    fn shl_becomes_mul_within_the_exact_window() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("a", Type::I64, &[256]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, i| {
                let c = fb.iconst(5);
                let addr = fb.shl(i, c); // i * 32
                let one = fb.iconst(1);
                fb.store_idx_ty(a, &[addr], one, Type::I64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        let mem_before = {
            let mut i = Interp::new(&m);
            i.run(&[]).expect("runs");
            i.memory.cells.clone()
        };
        assert!(StrengthReduce.run(&m.arrays, &mut m.functions[0]));
        m.verify().expect("verifies");
        assert!(
            binaries(&m)
                .iter()
                .any(|&(op, _, rhs)| op == BinOp::Mul && rhs == Operand::int(32)),
            "shl 5 should become mul 32"
        );
        assert!(
            binaries(&m).iter().all(|&(op, ..)| op != BinOp::Shl),
            "no shl left"
        );
        let mut i = Interp::new(&m);
        i.run(&[]).expect("still runs");
        assert_eq!(i.memory.cells, mem_before);
    }

    #[test]
    fn oversized_shift_is_left_alone() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
            let x = fb.param(0);
            let c = fb.iconst(63);
            let r = fb.shl(x, c);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert!(!StrengthReduce.run(&m.arrays, &mut m.functions[0]));
    }

    #[test]
    fn sub_const_becomes_add_and_chains_fold() {
        // ((x - 1) + 5) should end as a single  add x, 4  after fixpointing.
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
            let x = fb.param(0);
            let one = fb.iconst(1);
            let t = fb.sub(x, one);
            let five = fb.iconst(5);
            let r = fb.add(t, five);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        // First sweep: sub → add x,-1. Second: reassociate through it.
        assert!(StrengthReduce.run(&m.arrays, &mut m.functions[0]));
        assert!(StrengthReduce.run(&m.arrays, &mut m.functions[0]));
        assert!(!StrengthReduce.run(&m.arrays, &mut m.functions[0]));
        let f = m.function(FuncId(0));
        // The second add now reads the parameter directly with a folded 4.
        let last = f
            .block_ids()
            .flat_map(|b| f.block(b).instrs.clone())
            .filter_map(|iid| match *f.instr(iid) {
                Instr::Binary {
                    op: BinOp::Add,
                    lhs,
                    rhs,
                    ..
                } => Some((lhs, rhs)),
                _ => None,
            })
            .last()
            .expect("an add remains");
        assert_eq!(last.1, Operand::int(4));
        let mut i = Interp::new(&m);
        let out = i.run(&[crate::interp::Value::I(10)]).expect("runs");
        assert_eq!(out.return_value, Some(crate::interp::Value::I(14)));
    }

    #[test]
    fn constants_normalise_to_the_right() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
            let x = fb.param(0);
            let seven = fb.iconst(7);
            let r = fb.binary(BinOp::Mul, Type::I64, seven, x); // 7 * x
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert!(StrengthReduce.run(&m.arrays, &mut m.functions[0]));
        let bins = binaries(&m);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].2, Operand::int(7), "constant moved right");
        assert!(matches!(bins[0].1, Operand::Value(_)));
        assert!(!StrengthReduce.run(&m.arrays, &mut m.functions[0]));
    }

    #[test]
    fn i32_narrowing_is_preserved() {
        // i32 wrapping: shl and mul must agree through the narrowing, and
        // reassociated constants may leave the i32 range without changing
        // the narrowed result.
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I32], Some(Type::I32), |fb| {
            let x = fb.param(0);
            let c = fb.iconst(30);
            let big = fb.binary(BinOp::Shl, Type::I32, x, c);
            let m1 = fb.iconst(i32::MAX as i64);
            let t = fb.binary(BinOp::Add, Type::I32, big, m1);
            let m2 = fb.iconst(5);
            let r = fb.binary(BinOp::Add, Type::I32, t, m2);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        let run = |m: &crate::Module, x: i64| {
            let mut i = Interp::new(m);
            i.run(&[crate::interp::Value::I(x)])
                .expect("runs")
                .return_value
        };
        let inputs = [0i64, 1, -1, 3, i32::MAX as i64, i32::MIN as i64];
        let before: Vec<_> = inputs.iter().map(|&x| run(&m, x)).collect();
        while StrengthReduce.run(&m.arrays, &mut m.functions[0]) {}
        m.verify().expect("verifies");
        let after: Vec<_> = inputs.iter().map(|&x| run(&m, x)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn floats_and_unplaced_instrs_are_untouched() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::F64], Some(Type::F64), |fb| {
            let x = fb.param(0);
            let c = fb.fconst(1.5);
            let t = fb.fadd(c, x); // float const on the left stays put
            let r = fb.fadd(t, c);
            fb.ret(Some(r));
        });
        let mut m = mb.finish();
        assert!(!StrengthReduce.run(&m.arrays, &mut m.functions[0]));
    }
}
