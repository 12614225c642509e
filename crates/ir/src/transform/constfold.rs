//! Constant folding through the interpreter's own arithmetic kernels.

use super::{Feeds, Pass};
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

/// The replacement operand for `instr` when its inputs, read through
/// `cur`, are constant enough, or `None` when it must be left alone.
fn folded(instr: &Instr, cur: impl Fn(Operand) -> Operand) -> Option<Operand> {
    match instr {
        Instr::Binary { op, ty, lhs, rhs } => {
            let (l, r) = (const_of(cur(*lhs))?, const_of(cur(*rhs))?);
            let v = exec_binary(*op, *ty, imm_value(l), imm_value(r)).ok()?;
            Some(Operand::Const(value_imm(v)?))
        }
        Instr::Unary { op, val, .. } => {
            let v = exec_unary(*op, imm_value(const_of(cur(*val))?)).ok()?;
            Some(Operand::Const(value_imm(v)?))
        }
        Instr::Cmp { pred, ty, lhs, rhs } => {
            let (l, r) = (const_of(cur(*lhs))?, const_of(cur(*rhs))?);
            let v = exec_cmp(*pred, *ty, imm_value(l), imm_value(r)).ok()?;
            Some(Operand::Const(Imm::Bool(v)))
        }
        Instr::Select {
            cond,
            then_val,
            else_val,
            ..
        } => match const_of(cur(*cond))? {
            Imm::Bool(true) => Some(cur(*then_val)),
            Imm::Bool(false) => Some(cur(*else_val)),
            // A non-bool constant condition errors at runtime; keep it.
            _ => None,
        },
        Instr::Phi { incomings, .. } => {
            let (_, first) = *incomings.first()?;
            let first = cur(first);
            incomings
                .iter()
                .all(|&(_, v)| same_operand(cur(v), first))
                .then_some(first)
        }
        _ => None,
    }
}

/// What a use of `op` reads once a round's folds so far are applied:
/// `reps[v]` is the replacement of fold result `v`, itself read as of its
/// fold, so a chain only leads to later folds and ends.
fn current(reps: &[Option<Operand>], mut op: Operand) -> Operand {
    while let Operand::Value(v) = op {
        match reps[v.index()] {
            Some(rep) => op = rep,
            None => break,
        }
    }
    op
}

/// Folds in rounds until a round rewrites no use. A round visits the
/// placed instructions in block order and reads each one's operands as if
/// every earlier fold of the round had already replaced its uses, then
/// rewrites every use in the arena and the terminators in one walk, so the
/// result is that of replacing each fold's uses as soon as it is found.
fn fold_function(func: &mut Function) -> bool {
    let mut reps: Vec<Option<Operand>> = vec![None; func.values.len()];
    let mut changed = false;
    loop {
        let placed: Vec<InstrId> = func
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().copied())
            .collect();
        let mut folds = 0usize;
        for iid in placed {
            let Some(result) = func.result_of(iid) else {
                continue;
            };
            if let Some(rep) = folded(func.instr(iid), |op| current(&reps, op)) {
                if rep != Operand::Value(result) {
                    reps[result.index()] = Some(rep);
                    folds += 1;
                }
            }
        }
        if folds == 0 {
            return changed;
        }
        let mut rewrites = 0usize;
        let mut rewrite = |op: &mut Operand| {
            if matches!(*op, Operand::Value(v) if reps[v.index()].is_some()) {
                *op = current(&reps, *op);
                rewrites += 1;
            }
        };
        for instr in &mut func.instrs {
            instr.for_each_operand_mut(&mut rewrite);
        }
        for block in &mut func.blocks {
            if let Some(term) = &mut block.term {
                term.for_each_operand_mut(&mut rewrite);
            }
        }
        reps.fill(None);
        if rewrites == 0 {
            return changed;
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::replace_all_uses;
    use crate::Module;

    /// Folding with every fold's uses replaced at once, one arena walk per
    /// fold: the rewrite [`fold_function`]'s single walk per round must
    /// reproduce.
    fn fold_one_walk_per_fold(func: &mut Function) {
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
                if let Some(rep) = folded(func.instr(iid), |op| op) {
                    if rep != Operand::Value(result) && replace_all_uses(func, result, rep) > 0 {
                        round = true;
                    }
                }
            }
            if !round {
                return;
            }
        }
    }

    #[test]
    fn one_walk_per_round_rewrites_as_one_walk_per_fold() {
        // A select placed before the value it forwards (which folds later
        // in the same round), a phi whose incomings fold earlier in the
        // round, and a pair of phis that forward to each other.
        let src = "; module t
fn @main(i1 %0) -> i64 {
bb0: ; entry
  br bb2
bb1: ; uses
  %1 = select i64 true, %2, 0
  %3 = add i64 %1, 1
  br %0 ? bb3 : bb4
bb2: ; late
  %2 = mul i64 2, 3
  br bb1
bb3: ; a
  %4 = add i64 %3, 0
  br bb5
bb4: ; b
  %5 = sub i64 %3, 0
  br bb5
bb5: ; join
  %6 = phi i64 [bb3: %4], [bb4: %5]
  %7 = phi i64 [bb3: 7], [bb4: 7]
  %8 = add i64 %6, %7
  br bb6
bb6: ; loop
  %9 = phi i64 [bb5: %8], [bb6: %10]
  %10 = phi i64 [bb5: %8], [bb6: %9]
  br %0 ? bb6 : bb7
bb7: ; exit
  ret %10
}
";
        let m = Module::parse_text(src).expect("fixture parses");
        m.verify().expect("fixture verifies");
        let (mut batched, mut reference) = (m.clone(), m);
        assert!(fold_function(&mut batched.functions[0]));
        fold_one_walk_per_fold(&mut reference.functions[0]);
        assert_eq!(batched.to_text(), reference.to_text());
        let text = batched.to_text();
        assert!(text.contains("%9 = phi i64 [bb5: 14]"), "{text}");
    }
}
