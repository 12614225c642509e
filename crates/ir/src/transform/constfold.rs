//! Constant folding through the interpreter's own arithmetic kernels.

use super::{replace_all_uses, Feeds, Pass};
use crate::instr::{Imm, Instr, Operand};
use crate::interp::{exec_binary, exec_cmp, exec_unary, Value};
use crate::module::{ArrayDecl, Function, InstrId};

/// Replaces uses of instructions with all-constant inputs by their result.
///
/// Evaluation goes through the same `exec_*` kernels as the interpreter, so
/// wrapping arithmetic, `i32` narrowing and float semantics are bit-exact by
/// construction. An evaluation that would error at runtime (division by
/// zero, operand type confusion) is left in place — the instruction keeps
/// its runtime behavior. Folded instructions become unused but stay in
/// their blocks; [`super::Dce`] removes the ones it can prove trap-free.
///
/// Also folds:
/// * `select` on a constant condition → the chosen operand (constant or
///   not);
/// * phis whose incomings are all the same operand (bit-identical for float
///   constants) → that operand.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    /// A folded branch condition is work for simplify-cfg, a replaced
    /// operand can make two expressions equal (gvn), and a folded
    /// instruction loses its uses (dce). It never unplaces an instruction
    /// (compact) and repeats its rounds until none folds, so it never feeds
    /// itself.
    fn feeds(&self) -> Feeds {
        Feeds::Only(&["simplify-cfg", "gvn", "dce"])
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        fold_function(func)
    }
}

fn imm_value(imm: Imm) -> Value {
    match imm {
        Imm::Int(v) => Value::I(v),
        Imm::Float(v) => Value::F(v),
        Imm::Bool(v) => Value::B(v),
    }
}

fn value_imm(v: Value) -> Option<Imm> {
    match v {
        Value::I(v) => Some(Imm::Int(v)),
        Value::F(v) => Some(Imm::Float(v)),
        Value::B(v) => Some(Imm::Bool(v)),
        Value::P(_) => None,
    }
}

fn const_of(op: Operand) -> Option<Imm> {
    match op {
        Operand::Const(imm) => Some(imm),
        Operand::Value(_) => None,
    }
}

/// Bit-exact operand equality (`-0.0 != 0.0`, `NaN == NaN` payload-wise),
/// unlike the derived `PartialEq` which follows IEEE comparison.
fn same_operand(a: Operand, b: Operand) -> bool {
    match (a, b) {
        (Operand::Value(x), Operand::Value(y)) => x == y,
        (Operand::Const(Imm::Float(x)), Operand::Const(Imm::Float(y))) => {
            x.to_bits() == y.to_bits()
        }
        (Operand::Const(x), Operand::Const(y)) => x == y,
        _ => false,
    }
}

/// The replacement operand for `instr` when its inputs are constant enough,
/// or `None` when it must be left alone.
fn folded(instr: &Instr) -> Option<Operand> {
    match instr {
        Instr::Binary { op, ty, lhs, rhs } => {
            let (l, r) = (const_of(*lhs)?, const_of(*rhs)?);
            let v = exec_binary(*op, *ty, imm_value(l), imm_value(r)).ok()?;
            Some(Operand::Const(value_imm(v)?))
        }
        Instr::Unary { op, val, .. } => {
            let v = exec_unary(*op, imm_value(const_of(*val)?)).ok()?;
            Some(Operand::Const(value_imm(v)?))
        }
        Instr::Cmp { pred, ty, lhs, rhs } => {
            let (l, r) = (const_of(*lhs)?, const_of(*rhs)?);
            let v = exec_cmp(*pred, *ty, imm_value(l), imm_value(r)).ok()?;
            Some(Operand::Const(Imm::Bool(v)))
        }
        Instr::Select {
            cond,
            then_val,
            else_val,
            ..
        } => match const_of(*cond)? {
            Imm::Bool(true) => Some(*then_val),
            Imm::Bool(false) => Some(*else_val),
            // A non-bool constant condition errors at runtime; keep it.
            _ => None,
        },
        Instr::Phi { incomings, .. } => {
            let (_, first) = *incomings.first()?;
            incomings
                .iter()
                .all(|&(_, v)| same_operand(v, first))
                .then_some(first)
        }
        _ => None,
    }
}

fn fold_function(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let placed: Vec<InstrId> = func
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().copied())
            .collect();
        let mut round = false;
        for iid in placed {
            let Some(result) = func.result_of(iid) else {
                continue;
            };
            if let Some(rep) = folded(func.instr(iid)) {
                if rep != Operand::Value(result) && replace_all_uses(func, result, rep) > 0 {
                    round = true;
                }
            }
        }
        if !round {
            return changed;
        }
        changed = true;
    }
}
