//! Structural and SSA verification.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{Instr, Operand, Terminator};
use crate::module::{BlockId, Function, Module, ValueDef};
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
    /// Verifies the module:
    ///
    /// * every block is terminated and branch targets are in range,
    /// * phi incomings cover exactly the block's CFG predecessors,
    /// * every used value is defined and definitions dominate uses
    ///   (phi uses checked at the incoming edge),
    /// * gep index counts match array dimensionality; load/store element
    ///   types match the array declaration where statically known,
    /// * call arity/typing matches the callee signature.
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
        let err = |m: String| VerifyError {
            func: func.name.clone(),
            message: m,
        };

        if func.blocks.is_empty() {
            return Err(err("function has no blocks".into()));
        }

        // Terminators and target ranges.
        for b in func.block_ids() {
            let blk = func.block(b);
            let Some(term) = blk.term.as_ref() else {
                return Err(err(format!("block {b} ({}) has no terminator", blk.name)));
            };
            for t in term.successors() {
                if t.index() >= func.blocks.len() {
                    return Err(err(format!("branch target {t} out of range in {b}")));
                }
            }
            if let Terminator::Ret(v) = term {
                match (v, func.ret) {
                    (Some(_), None) => return Err(err("void function returns a value".into())),
                    (None, Some(_)) => return Err(err("non-void function returns nothing".into())),
                    _ => {}
                }
            }
        }

        let cfg = Cfg::compute(func);
        let dom = DomTree::dominators(func, &cfg);

        // Map each value to its defining block (params → entry).
        let mut def_block: Vec<BlockId> = vec![func.entry(); func.values.len()];
        for b in func.block_ids() {
            for &iid in &func.block(b).instrs {
                if let Some(v) = func.result_of(iid) {
                    def_block[v.index()] = b;
                }
            }
        }

        for b in func.block_ids() {
            if !cfg.is_reachable(b) {
                return Err(err(format!("block {b} is unreachable")));
            }
            let blk = func.block(b);
            let mut seen_non_phi = false;
            for (pos, &iid) in blk.instrs.iter().enumerate() {
                let instr = func.instr(iid);
                match instr {
                    Instr::Phi { incomings, ty } => {
                        if seen_non_phi {
                            return Err(err(format!(
                                "phi not at top of block {b} (position {pos})"
                            )));
                        }
                        let mut preds = cfg.preds[b.index()].clone();
                        preds.sort_unstable();
                        let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                        inc.sort_unstable();
                        if preds != inc {
                            return Err(err(format!(
                                "phi in {b} incomings {inc:?} do not match predecessors {preds:?}"
                            )));
                        }
                        for (p, v) in incomings {
                            self.check_operand_type(func, *v, Some(*ty)).map_err(&err)?;
                            if let Operand::Value(vid) = v {
                                // Definition must dominate the incoming edge,
                                // i.e. dominate the predecessor block.
                                if !dom.dominates(def_block[vid.index()], *p) {
                                    return Err(err(format!(
                                        "phi incoming {vid} from {p} not dominated by its definition"
                                    )));
                                }
                            }
                        }
                    }
                    _ => {
                        seen_non_phi = true;
                        let mut problem: Option<String> = None;
                        instr.for_each_operand(|op| {
                            if problem.is_some() {
                                return;
                            }
                            if let Operand::Value(v) = op {
                                if v.index() >= func.values.len() {
                                    problem = Some(format!("use of undefined value {v}"));
                                } else if !dom.dominates(def_block[v.index()], b) {
                                    // Same-block ordering: defs must precede uses.
                                    if def_block[v.index()] == b {
                                        // fall through to ordering check below
                                    } else {
                                        problem = Some(format!(
                                            "use of {v} in {b} not dominated by its definition in {}",
                                            def_block[v.index()]
                                        ));
                                    }
                                }
                            }
                        });
                        if let Some(p) = problem {
                            return Err(err(p));
                        }
                        self.check_instr(func, instr).map_err(&err)?;
                    }
                }
            }
            // Same-block def-before-use ordering.
            let mut defined_here: Vec<bool> = vec![false; func.values.len()];
            for &iid in &blk.instrs {
                let instr = func.instr(iid);
                if !matches!(instr, Instr::Phi { .. }) {
                    let mut bad = None;
                    instr.for_each_operand(|op| {
                        if bad.is_some() {
                            return;
                        }
                        if let Operand::Value(v) = op {
                            if def_block[v.index()] == b
                                && !defined_here[v.index()]
                                && !matches!(func.values[v.index()], ValueDef::Param(..))
                                && !is_phi_def(func, v)
                            {
                                bad = Some(format!("value {v} used before definition in {b}"));
                            }
                        }
                    });
                    if let Some(m) = bad {
                        return Err(err(m));
                    }
                }
                if let Some(v) = func.result_of(iid) {
                    defined_here[v.index()] = true;
                }
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
            }
            Instr::Load { ptr, ty } | Instr::Store { ptr, ty, .. } => {
                if let Instr::Store { value, .. } = instr {
                    self.check_operand_type(func, *value, Some(*ty))?;
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
            }
            _ => {}
        }
        Ok(())
    }
}

fn is_phi_def(func: &Function, v: crate::module::ValueId) -> bool {
    matches!(
        func.values[v.index()],
        ValueDef::Instr(iid) if matches!(func.instr(iid), Instr::Phi { .. })
    )
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
}
