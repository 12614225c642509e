//! Structural and SSA verification.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{Imm, Instr, Operand, Terminator};
use crate::module::{BlockId, Function, InstrId, Module, ValueDef, ValueId};
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A verification failure, pointing at the offending function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Offending function.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify failed in `{}`: {}", self.func, self.message)
    }
}

impl Error for VerifyError {}

impl Module {
    /// Verifies the module. Every id a function holds is range-checked
    /// before it is used, so any `Function`, however malformed, gets an
    /// answer and no panic. A module that verifies is what the decoder, the
    /// interpreter and every pass assume:
    ///
    /// * the value arena is consistent: parameters first, then one value per
    ///   recorded instruction result, each pointing back at the other; a
    ///   phi records a result and an instruction that produces no value (a
    ///   store, a void call) records none,
    /// * every block is terminated, branch targets are in range, and each
    ///   instruction is listed in at most one block, at most once,
    /// * every block is reachable, phis head their block and never the
    ///   entry block, and phi incomings cover exactly the block's CFG
    ///   predecessors,
    /// * every used value is defined by a parameter or by an instruction
    ///   listed in a block, and definitions dominate uses (phi uses checked
    ///   at the incoming edge, same-block definitions precede their uses),
    /// * gep index counts match array dimensionality and every index is an
    ///   integer; load/store addresses are pointers, and their element
    ///   types match the array declaration where statically known,
    /// * call arity, argument types and result type match the callee
    ///   signature; a branch condition is a bool, and a returned value has
    ///   the function's return type.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found.
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.functions
            .iter()
            .try_for_each(|func| self.verify_function(func))
    }

    /// Verifies one function against this module's array declarations and
    /// callee signatures. `func` need not be one of the module's own
    /// functions: the pass driver checks a detached copy it is rewriting.
    pub(crate) fn verify_function(&self, func: &Function) -> Result<(), VerifyError> {
        self.check_function(func).map_err(|message| VerifyError {
            func: func.name.clone(),
            message,
        })
    }

    fn check_function(&self, func: &Function) -> Result<(), String> {
        let (nvalues, ninstrs) = (func.values.len(), func.instrs.len());
        if func.blocks.is_empty() {
            return Err("function has no blocks".into());
        }

        // The value arena: value `i` is parameter `i` for the first
        // `params.len()` values, then the result of exactly one instruction.
        if func.instr_results.len() != ninstrs {
            return Err(format!(
                "{} result slots for {ninstrs} instructions",
                func.instr_results.len()
            ));
        }
        for (i, def) in func.values.iter().enumerate() {
            let consistent = match *def {
                ValueDef::Param(k, ty) => k as usize == i && func.params.get(i) == Some(&ty),
                ValueDef::Instr(iid) => {
                    i >= func.params.len()
                        && func.instr_results.get(iid.index()) == Some(&Some(ValueId(i as u32)))
                }
            };
            if !consistent {
                return Err(format!("value %{i} has an inconsistent definition"));
            }
        }
        if nvalues < func.params.len() {
            return Err("parameters have no values".into());
        }
        for (i, instr) in func.instrs.iter().enumerate() {
            let iid = InstrId(i as u32);
            match func.instr_results[i] {
                Some(v) if func.values.get(v.index()) != Some(&ValueDef::Instr(iid)) => {
                    return Err(format!("result {v} of {iid} is not defined by it"));
                }
                Some(v) if instr.result_type().is_none() => {
                    return Err(format!("{iid} produces no value but records result {v}"));
                }
                None if matches!(instr, Instr::Phi { .. }) => {
                    return Err(format!("phi {iid} records no result"));
                }
                _ => {}
            }
        }

        // Placement: each instruction in at most one block, at most once.
        // `def_at[v]` is where value `v` becomes available: its block and
        // position there (parameters at 0 in the entry, the instruction at
        // position `p` of its block at `p + 1`).
        let entry = func.entry();
        let mut def_at: Vec<Option<(BlockId, usize)>> = vec![None; nvalues];
        for slot in &mut def_at[..func.params.len()] {
            *slot = Some((entry, 0));
        }
        let mut placed = vec![false; ninstrs];
        for b in func.block_ids() {
            for (pos, &iid) in func.block(b).instrs.iter().enumerate() {
                if iid.index() >= ninstrs {
                    return Err(format!("block {b} lists out-of-range instruction {iid}"));
                }
                if std::mem::replace(&mut placed[iid.index()], true) {
                    return Err(format!("instruction {iid} is listed more than once"));
                }
                if let Some(v) = func.result_of(iid) {
                    def_at[v.index()] = Some((b, pos + 1));
                }
            }
        }

        // Terminators and target ranges.
        for b in func.block_ids() {
            let blk = func.block(b);
            let Some(term) = blk.term.as_ref() else {
                return Err(format!("block {b} ({}) has no terminator", blk.name));
            };
            for t in term.successors() {
                if t.index() >= func.blocks.len() {
                    return Err(format!("branch target {t} out of range in {b}"));
                }
            }
            if let Terminator::Ret(v) = term {
                match (v, func.ret) {
                    (Some(_), None) => return Err("void function returns a value".into()),
                    (None, Some(_)) => return Err("non-void function returns nothing".into()),
                    _ => {}
                }
            }
        }

        let cfg = Cfg::compute(func);
        let dom = DomTree::dominators(func, &cfg);

        // Whether the definition of `v` is available in block `b` before
        // position `at` (the convention of `def_at`).
        let available = |v: ValueId, b: BlockId, at: usize| -> Result<(), String> {
            let Some(&def) = def_at.get(v.index()) else {
                return Err(format!("use of undefined value {v}"));
            };
            match def {
                None => Err(format!("use of {v}, whose instruction is in no block")),
                Some((d, pos)) if d == b && pos >= at => {
                    Err(format!("value {v} used before definition in {b}"))
                }
                Some((d, _)) if d != b && !dom.dominates(d, b) => Err(format!(
                    "use of {v} in {b} not dominated by its definition in {d}"
                )),
                Some(_) => Ok(()),
            }
        };

        for b in func.block_ids() {
            if !cfg.is_reachable(b) {
                return Err(format!("block {b} is unreachable"));
            }
            let blk = func.block(b);
            let mut seen_non_phi = false;
            for (pos, &iid) in blk.instrs.iter().enumerate() {
                let instr = func.instr(iid);
                if let Instr::Phi { incomings, ty } = instr {
                    if seen_non_phi {
                        return Err(format!("phi not at top of block {b} (position {pos})"));
                    }
                    if b == entry {
                        return Err(format!("phi {iid} in the entry block"));
                    }
                    let mut preds = cfg.preds(b).to_vec();
                    preds.sort_unstable();
                    let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                    inc.sort_unstable();
                    if preds != inc {
                        return Err(format!(
                            "phi in {b} incomings {inc:?} do not match predecessors {preds:?}"
                        ));
                    }
                    for (p, v) in incomings {
                        // The definition must be available at the end of
                        // the predecessor, where the incoming edge leaves.
                        if let Operand::Value(vid) = v {
                            available(*vid, *p, usize::MAX)
                                .map_err(|e| format!("phi incoming from {p}: {e}"))?;
                        }
                        self.check_operand_type(func, *v, Some(*ty))?;
                    }
                } else {
                    seen_non_phi = true;
                    let mut problem = Ok(());
                    instr.for_each_operand(|op| {
                        if let (Ok(()), Operand::Value(v)) = (&problem, op) {
                            problem = available(v, b, pos + 1);
                        }
                    });
                    problem?;
                    self.check_instr(func, instr)?;
                }
            }
            let mut problem = Ok(());
            blk.terminator().for_each_operand(|op| {
                if let (Ok(()), Operand::Value(v)) = (&problem, op) {
                    problem = available(v, b, usize::MAX);
                }
            });
            problem?;
            match *blk.terminator() {
                Terminator::CondBr { cond, .. } if kind(func, cond) != Some(Kind::Bool) => {
                    return Err(format!("branch condition in {b} is not a bool"));
                }
                Terminator::Ret(Some(v)) if !func.ret.is_some_and(|t| fits(func, v, t)) => {
                    return Err(format!(
                        "{b} returns a value that is not of the return type"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn check_operand_type(
        &self,
        func: &Function,
        op: Operand,
        expect: Option<Type>,
    ) -> Result<(), String> {
        if let (Operand::Value(v), Some(want)) = (op, expect) {
            if let Some(got) = func.value_type(v) {
                if got != want {
                    return Err(format!("operand {v} has type {got}, expected {want}"));
                }
            }
        }
        Ok(())
    }

    fn check_instr(&self, func: &Function, instr: &Instr) -> Result<(), String> {
        match instr {
            Instr::Binary { ty, lhs, rhs, .. } => {
                self.check_operand_type(func, *lhs, Some(*ty))?;
                self.check_operand_type(func, *rhs, Some(*ty))?;
            }
            // `ty` is the result type; the conversions (sitofp/fptosi) take
            // an operand of the other class, so only same-type ops are
            // checked.
            Instr::Unary { op, ty, val }
                if !matches!(
                    op,
                    crate::instr::UnaryOp::SiToFp | crate::instr::UnaryOp::FpToSi
                ) =>
            {
                self.check_operand_type(func, *val, Some(*ty))?;
            }
            Instr::Cmp { ty, lhs, rhs, .. } => {
                self.check_operand_type(func, *lhs, Some(*ty))?;
                self.check_operand_type(func, *rhs, Some(*ty))?;
            }
            Instr::Select {
                ty,
                cond,
                then_val,
                else_val,
            } => {
                self.check_operand_type(func, *cond, Some(Type::I1))?;
                self.check_operand_type(func, *then_val, Some(*ty))?;
                self.check_operand_type(func, *else_val, Some(*ty))?;
            }
            Instr::Gep { array, indices } => {
                if array.index() >= self.arrays.len() {
                    return Err(format!("gep references undeclared array {array}"));
                }
                let decl = self.array(*array);
                if indices.len() != decl.dims.len() {
                    return Err(format!(
                        "gep into `{}` has {} indices for {} dimensions",
                        decl.name,
                        indices.len(),
                        decl.dims.len()
                    ));
                }
                if let Some(k) = indices
                    .iter()
                    .position(|&i| kind(func, i) != Some(Kind::Int))
                {
                    return Err(format!(
                        "gep into `{}` has a non-integer index {k}",
                        decl.name
                    ));
                }
            }
            Instr::Load { ptr, ty } | Instr::Store { ptr, ty, .. } => {
                if let Instr::Store { value, .. } = instr {
                    self.check_operand_type(func, *value, Some(*ty))?;
                }
                if kind(func, *ptr) != Some(Kind::Ptr) {
                    return Err("memory access through a non-pointer address".into());
                }
                // Where the pointer is a direct gep result we can check the
                // element type.
                if let Operand::Value(v) = ptr {
                    if let ValueDef::Instr(iid) = func.values[v.index()] {
                        if let Instr::Gep { array, .. } = func.instr(iid) {
                            let decl = self.array(*array);
                            if decl.elem != *ty {
                                return Err(format!(
                                    "access type {ty} mismatches `{}` element type {}",
                                    decl.name, decl.elem
                                ));
                            }
                        }
                    }
                }
            }
            Instr::Call { callee, args, ty } => {
                if callee.index() >= self.functions.len() {
                    return Err(format!("call to undeclared function {callee}"));
                }
                let target = self.function(*callee);
                if args.len() != target.params.len() {
                    return Err(format!(
                        "call to `{}` passes {} args for {} params",
                        target.name,
                        args.len(),
                        target.params.len()
                    ));
                }
                if *ty != target.ret {
                    return Err(format!("call to `{}` result type mismatch", target.name));
                }
                if let Some(k) = (0..args.len()).find(|&k| !fits(func, args[k], target.params[k])) {
                    return Err(format!(
                        "call to `{}` passes argument {k} of the wrong type (expected {})",
                        target.name, target.params[k]
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// The kind of runtime value an operand reads, as the interpreter tells
/// them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
    Ptr,
}

impl From<Type> for Kind {
    fn from(ty: Type) -> Kind {
        match ty {
            Type::I1 => Kind::Bool,
            Type::I32 | Type::I64 => Kind::Int,
            Type::F32 | Type::F64 => Kind::Float,
            Type::Ptr => Kind::Ptr,
        }
    }
}

/// The kind of `op`, whose value id is in range; `None` for a value with
/// no type.
fn kind(func: &Function, op: Operand) -> Option<Kind> {
    match op {
        Operand::Value(v) => func.value_type(v).map(Kind::from),
        Operand::Const(Imm::Int(_)) => Some(Kind::Int),
        Operand::Const(Imm::Float(_)) => Some(Kind::Float),
        Operand::Const(Imm::Bool(_)) => Some(Kind::Bool),
    }
}

/// Whether `op` can be read where a `want` is expected: a value of exactly
/// that type, or an immediate of its kind.
fn fits(func: &Function, op: Operand, want: Type) -> bool {
    match op {
        Operand::Value(v) => func.value_type(v) == Some(want),
        Operand::Const(_) => kind(func, op) == Some(Kind::from(want)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn builder_output_verifies() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 4]);
        mb.function("f", &[Type::I64], Some(Type::F64), |fb| {
            let p = fb.param(0);
            let acc = fb.fconst(0.0);
            let finals = fb.counted_loop_carry(0, 4, 1, &[(Type::F64, acc)], |fb, i, c| {
                let v = fb.load_idx(a, &[i, p]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(finals[0]));
        });
        let m = mb.finish();
        m.verify().expect("builder output must verify");
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| {
            // create an orphan block without a terminator
            fb.new_block("orphan");
            fb.ret(None);
        });
        let m = mb.finish();
        let e = m.verify().expect_err("must fail");
        assert!(e.message.contains("no terminator"), "{e}");
    }

    #[test]
    fn gep_arity_is_checked() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 4]);
        mb.function("f", &[], None, |fb| {
            let i = fb.iconst(0);
            let _p = fb.gep(a, &[i]); // 1 index for 2-D array
            fb.ret(None);
        });
        let m = mb.finish();
        let e = m.verify().expect_err("must fail");
        assert!(e.message.contains("indices"), "{e}");
    }

    #[test]
    fn access_type_mismatch_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4]);
        mb.function("f", &[], None, |fb| {
            let i = fb.iconst(0);
            let _ = fb.load_idx_ty(a, &[i], Type::I64);
            fb.ret(None);
        });
        let m = mb.finish();
        let e = m.verify().expect_err("must fail");
        assert!(e.message.contains("mismatches"), "{e}");
    }

    #[test]
    fn void_return_mismatch_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| {
            let v = fb.iconst(3);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        let e = m.verify().expect_err("must fail");
        assert!(e.message.contains("void"), "{e}");
    }

    #[test]
    fn call_arity_is_checked() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.function("g", &[Type::I64], None, |fb| fb.ret(None));
        mb.function("f", &[], None, |fb| {
            fb.call(g, &[], None);
            fb.ret(None);
        });
        let m = mb.finish();
        let e = m.verify().expect_err("must fail");
        assert!(e.message.contains("args"), "{e}");
    }

    /// `f(i64) -> i64`: `%1 = add %0, 1` in the entry, then `next` computes
    /// `%2 = add %1, 1` and returns it.
    fn two_block_chain() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[Type::I64], Some(Type::I64), |fb| {
            let a = fb.add(fb.param(0), fb.iconst(1));
            let next = fb.new_block("next");
            fb.br(next);
            fb.switch_to(next);
            let b = fb.add(a, fb.iconst(1));
            fb.ret(Some(b));
        });
        let m = mb.finish();
        m.verify().expect("the unmutated chain verifies");
        m
    }

    fn rejection(m: &Module) -> String {
        m.verify().expect_err("must fail").message
    }

    #[test]
    fn entry_block_phi_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], Some(Type::I64), |fb| {
            let v = fb.phi(Type::I64, Vec::new());
            fb.ret(Some(v));
        });
        let e = rejection(&mb.finish());
        assert!(e.contains("entry block"), "{e}");
    }

    #[test]
    fn instruction_in_two_blocks_is_rejected() {
        let mut m = two_block_chain();
        let f = &mut m.functions[0];
        let first = f.blocks[0].instrs[0];
        f.blocks[1].instrs.insert(0, first);
        let e = rejection(&m);
        assert!(e.contains("listed more than once"), "{e}");
    }

    #[test]
    fn use_of_an_unplaced_instruction_is_rejected() {
        let mut m = two_block_chain();
        m.functions[0].blocks[0].instrs.clear();
        let e = rejection(&m);
        assert!(e.contains("in no block"), "{e}");
    }

    #[test]
    fn void_call_with_a_result_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.function("g", &[], None, |fb| fb.ret(None));
        mb.function("f", &[], None, |fb| {
            fb.call(g, &[], None);
            fb.ret(None);
        });
        let mut m = mb.finish();
        let f = &mut m.functions[1];
        let call = f.blocks[0].instrs[0];
        let v = ValueId(f.values.len() as u32);
        f.values.push(ValueDef::Instr(call));
        f.instr_results[call.index()] = Some(v);
        let e = rejection(&m);
        assert!(e.contains("produces no value"), "{e}");
    }

    #[test]
    fn out_of_range_instruction_in_a_block_is_rejected() {
        let mut m = two_block_chain();
        m.functions[0].blocks[1].instrs.push(InstrId(99));
        let e = rejection(&m);
        assert!(e.contains("out-of-range instruction"), "{e}");
    }

    #[test]
    fn out_of_range_phi_incoming_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], Some(Type::I64), |fb| {
            let zero = fb.iconst(0);
            let out = fb.counted_loop_carry(0, 4, 1, &[(Type::I64, zero)], |fb, i, c| {
                vec![fb.add(c[0], i)]
            });
            fb.ret(Some(out[0]));
        });
        let mut m = mb.finish();
        m.verify().expect("the unmutated loop verifies");
        let f = &mut m.functions[0];
        let phi = f
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Phi { incomings, .. } => Some(incomings),
                _ => None,
            })
            .expect("the loop has a phi");
        phi[0].1 = Operand::Value(ValueId(999));
        let e = rejection(&m);
        assert!(e.contains("undefined value %999"), "{e}");
    }

    #[test]
    fn terminator_operands_must_be_dominated() {
        // `ret` in the join block reads a value defined on only one arm.
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[Type::I1], Some(Type::I64), |fb| {
            let (then_bb, else_bb, join) = (
                fb.new_block("then"),
                fb.new_block("else"),
                fb.new_block("join"),
            );
            fb.cond_br(fb.param(0), then_bb, else_bb);
            fb.switch_to(then_bb);
            let x = fb.add(fb.iconst(1), fb.iconst(2));
            fb.br(join);
            fb.switch_to(else_bb);
            fb.br(join);
            fb.switch_to(join);
            fb.ret(Some(x));
        });
        let e = rejection(&mb.finish());
        assert!(e.contains("not dominated"), "{e}");
    }

    #[test]
    fn inconsistent_value_arena_is_rejected() {
        let mut m = two_block_chain();
        // The parameter's slot claims to be the entry `add`'s result.
        m.functions[0].values[0] = ValueDef::Instr(InstrId(0));
        let e = rejection(&m);
        assert!(e.contains("inconsistent definition"), "{e}");
    }

    fn parsed_rejection(src: &str) -> String {
        rejection(&Module::parse_text(src).expect("fixture parses"))
    }

    #[test]
    fn non_integer_gep_index_is_rejected() {
        let e = parsed_rejection(
            "; module t
array f64 @A [4]
fn @f(f64 %0) -> void {
bb0: ; entry
  %1 = gep @A[%0]
  ret
}
",
        );
        assert!(e.contains("non-integer index 0"), "{e}");
    }

    #[test]
    fn non_pointer_address_is_rejected() {
        let e = parsed_rejection(
            "; module t
array i64 @A [4]
fn @f(i64 %0) -> i64 {
bb0: ; entry
  %1 = load i64 %0
  ret %1
}
",
        );
        assert!(e.contains("non-pointer address"), "{e}");
    }

    #[test]
    fn mistyped_call_argument_is_rejected() {
        let e = parsed_rejection(
            "; module t
fn @g(i64 %0) -> void {
bb0: ; entry
  ret
}

fn @f() -> void {
bb0: ; entry
  call void @g(1.5)
  ret
}
",
        );
        assert!(e.contains("argument 0 of the wrong type"), "{e}");
    }

    #[test]
    fn non_bool_branch_condition_is_rejected() {
        let e = parsed_rejection(
            "; module t
fn @f(i64 %0) -> void {
bb0: ; entry
  br %0 ? bb1 : bb1
bb1: ; exit
  ret
}
",
        );
        assert!(e.contains("not a bool"), "{e}");
    }

    #[test]
    fn mistyped_return_value_is_rejected() {
        let e = parsed_rejection(
            "; module t
fn @f(i64 %0) -> f64 {
bb0: ; entry
  ret %0
}
",
        );
        assert!(e.contains("not of the return type"), "{e}");
    }
}
