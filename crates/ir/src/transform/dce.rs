//! Dead code elimination for provably trap-free unused instructions.

use super::{Feeds, Pass};
use crate::instr::{BinOp, Instr, Operand, UnaryOp};
use crate::module::{ArrayDecl, Function, ValueDef};
use crate::types::Type;

/// Unlinks instructions whose result is unused *and* whose execution can be
/// proven side-effect- and trap-free, iterating until nothing else dies
/// (removing a load frees its gep, and so on).
///
/// The trap analysis is deliberately conservative so error behavior is
/// preserved exactly:
///
/// * `sdiv`/`srem` survive unless the divisor is a non-zero integer
///   constant;
/// * `gep` survives unless every index is a constant inside its dimension;
/// * `load` survives unless its pointer is a direct `gep` result (whose own
///   bounds check already dominates the load);
/// * operand *types* are checked against the opcode (the verifier does not
///   check an immediate's kind or a conversion's operand), so an unused
///   instruction that would die with a type-confusion error at runtime is
///   kept;
/// * `store` and `call` always survive.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    /// Unlinked instructions are compact's work. Removing an unused
    /// instruction changes no operand, terminator or dominance, so it gives
    /// no other pass work, and it repeats until nothing else dies.
    fn feeds(&self) -> Feeds {
        Feeds::Only(&["compact"])
    }

    fn run(&self, arrays: &[ArrayDecl], func: &mut Function) -> bool {
        dce_function(arrays, func)
    }
}

/// Runtime value class an operand belongs to, derived from static types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Int,
    Float,
    Bool,
    Ptr,
}

fn operand_class(func: &Function, op: Operand) -> Option<Class> {
    let ty = match op {
        Operand::Const(imm) => {
            return Some(match imm {
                crate::instr::Imm::Int(_) => Class::Int,
                crate::instr::Imm::Float(_) => Class::Float,
                crate::instr::Imm::Bool(_) => Class::Bool,
            })
        }
        Operand::Value(v) => func.value_type(v)?,
    };
    Some(match ty {
        Type::I1 => Class::Bool,
        Type::I32 | Type::I64 => Class::Int,
        Type::F32 | Type::F64 => Class::Float,
        Type::Ptr => Class::Ptr,
    })
}

fn classes_are(func: &Function, ops: &[Operand], want: Class) -> bool {
    ops.iter().all(|&op| operand_class(func, op) == Some(want))
}

fn trap_free_when_unused(arrays: &[ArrayDecl], func: &Function, instr: &Instr) -> bool {
    match instr {
        Instr::Phi { .. } => true,
        Instr::Select { cond, .. } => operand_class(func, *cond) == Some(Class::Bool),
        Instr::Cmp { ty, lhs, rhs, .. } => {
            let want = if ty.is_float() {
                Class::Float
            } else {
                Class::Int
            };
            classes_are(func, &[*lhs, *rhs], want)
        }
        Instr::Unary { op, val, .. } => {
            let want = match op {
                UnaryOp::Neg | UnaryOp::Not | UnaryOp::SiToFp => Class::Int,
                _ => Class::Float,
            };
            operand_class(func, *val) == Some(want)
        }
        Instr::Binary { op, lhs, rhs, .. } => {
            if op.is_float() {
                classes_are(func, &[*lhs, *rhs], Class::Float)
            } else {
                let divisor_safe = !matches!(op, BinOp::Div | BinOp::Rem)
                    || matches!(rhs.as_const_int(), Some(d) if d != 0);
                divisor_safe && classes_are(func, &[*lhs, *rhs], Class::Int)
            }
        }
        Instr::Gep { array, indices } => {
            let decl = &arrays[array.index()];
            indices.iter().zip(&decl.dims).all(
                |(op, &dim)| matches!(op.as_const_int(), Some(i) if i >= 0 && (i as usize) < dim),
            )
        }
        Instr::Load { ptr, .. } => matches!(
            ptr,
            Operand::Value(v) if matches!(
                func.values[v.index()],
                ValueDef::Instr(g) if matches!(func.instr(g), Instr::Gep { .. })
            )
        ),
        Instr::Store { .. } | Instr::Call { .. } => false,
    }
}

fn dce_function(arrays: &[ArrayDecl], func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let counts = use_counts(func);
        let mut dead = vec![false; func.instrs.len()];
        let mut any_dead = false;
        for block in &func.blocks {
            for &iid in &block.instrs {
                let Some(result) = func.result_of(iid) else {
                    continue;
                };
                if counts[result.index()] == 0
                    && trap_free_when_unused(arrays, func, func.instr(iid))
                {
                    dead[iid.index()] = true;
                    any_dead = true;
                }
            }
        }
        if !any_dead {
            return changed;
        }
        for block in &mut func.blocks {
            block.instrs.retain(|iid| !dead[iid.index()]);
        }
        func.invalidate_block_map();
        changed = true;
    }
}

/// Per-value use counts over placed instructions and terminators.
fn use_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.values.len()];
    let mut count = |op: Operand| {
        if let Operand::Value(v) = op {
            counts[v.index()] += 1;
        }
    };
    for b in func.block_ids() {
        let block = func.block(b);
        for &iid in &block.instrs {
            func.instr(iid).for_each_operand(&mut count);
        }
        if let Some(term) = &block.term {
            term.for_each_operand(&mut count);
        }
    }
    counts
}
