//! A forward taint slice that proves an edit left a run's profile unchanged.
//!
//! The profile of a run ([`crate::interp::ExecProfile`]) is its block counts,
//! the cycles they imply and the entry function's return value. An edit that
//! changes only *values* — a nudged float immediate, an `fadd` turned into an
//! `fmul` — leaves the counts alone unless a changed value can steer control
//! or make the run fail. [`counts_unchanged`] decides that conservatively:
//! the instructions that differ between two same-shaped modules seed a taint
//! set, taint spreads to a fixpoint, and the proof is refused as soon as taint
//! reaches anything a value can steer.
//!
//! Taint spreads through
//! * SSA uses and phis;
//! * memory by array: a store of a tainted value taints every load of its
//!   array (a pointer that is not a direct `gep` result stands for every
//!   array);
//! * calls: tainted arguments taint the callee's parameters, and a callee
//!   that may return a tainted value taints every call to it.
//!
//! and the proof is refused ([`Refusal`]) when taint reaches a `CondBr`
//! condition, a `gep` index or a load/store pointer, an integer `div`/`rem`
//! (the interpreter's only value-dependent trap: `fptosi` saturates), or the
//! entry function's return value, which the profile records.

use crate::instr::{BinOp, Imm, Instr, Operand, Terminator, UnaryOp};
use crate::module::{ArrayId, FuncId, Function, Module, ValueDef};

/// Why [`counts_unchanged`] could not prove an edit profile-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The modules differ in more than instruction values: functions,
    /// arrays, blocks, terminators, result numbering, instruction kinds,
    /// `gep` arrays, callees, phi edges, or an SSA operand (as opposed to
    /// an immediate).
    Shape,
    /// Taint reaches a `CondBr` condition.
    Branch,
    /// Taint reaches a `gep` index or a load/store pointer.
    Address,
    /// Taint reaches an integer division or remainder.
    Trap,
    /// Taint reaches the entry function's return value.
    Return,
}

/// Proves that running `new` visits every block exactly as often as a run of
/// `old` from the same memory image did, returns the same value and fails
/// only where `old` failed. `old_fps`/`new_fps` are per-function content
/// fingerprints; functions whose fingerprints match are taken as unchanged.
///
/// # Errors
///
/// The first rule the slice breaks. A refusal says nothing about the counts:
/// the run has to be made.
pub fn counts_unchanged(
    old: &Module,
    old_fps: &[u64],
    new: &Module,
    new_fps: &[u64],
) -> Result<(), Refusal> {
    if old.functions.len() != new.functions.len() || old.arrays != new.arrays {
        return Err(Refusal::Shape);
    }
    let mut seeds = Vec::with_capacity(new.functions.len());
    let mut any_seed = false;
    for (f, (a, b)) in old.functions.iter().zip(&new.functions).enumerate() {
        let s = if old_fps[f] == new_fps[f] {
            Vec::new()
        } else {
            seed_masks(a, b)?
        };
        any_seed |= s.iter().any(|&m| m != 0);
        seeds.push(s);
    }
    if !any_seed {
        return Ok(());
    }
    let mut t = Taint {
        values: new
            .functions
            .iter()
            .map(|f| vec![false; f.values.len()])
            .collect(),
        returns: vec![false; new.functions.len()],
        arrays: vec![false; new.arrays.len()],
        any_array: false,
        changed: true,
    };
    let entry = new.entry_function();
    while t.changed {
        t.changed = false;
        for f in new.function_ids() {
            t.pass(new, f, &seeds[f.index()], entry == Some(f))?;
        }
    }
    Ok(())
}

/// Bit 63 of a seed mask: the opcode or a type differs.
const HEADER: u64 = 1 << 63;

/// The mask bit of operand slot `slot` (slots past 62 share bit 62).
fn slot_bit(slot: usize) -> u64 {
    1 << slot.min(62)
}

/// Per-instruction seed masks of a changed function: which operand slots
/// hold a different immediate, plus [`HEADER`].
fn seed_masks(old: &Function, new: &Function) -> Result<Vec<u64>, Refusal> {
    let same_shape = old.name == new.name
        && old.params == new.params
        && old.ret == new.ret
        && old.values == new.values
        && old.instr_results == new.instr_results
        && old.blocks.len() == new.blocks.len()
        && old.blocks.iter().zip(&new.blocks).all(|(a, b)| {
            a.instrs == b.instrs
                && match (&a.term, &b.term) {
                    (Some(x), Some(y)) => same_term(x, y),
                    _ => false,
                }
        });
    if !same_shape {
        return Err(Refusal::Shape);
    }
    let mut masks = vec![0u64; new.instrs.len()];
    let mut old_ops = Vec::new();
    for blk in &new.blocks {
        for &iid in &blk.instrs {
            let (a, b) = (old.instr(iid), new.instr(iid));
            // Most instructions are untouched. Derived equality compares
            // floats by value, so it can only hide a signed-zero edit
            // (`0.0 == -0.0`); a NaN never compares equal and takes the
            // slot-by-slot path below.
            if a == b && !has_float_zero(b) {
                continue;
            }
            let mut mask = match header_diff(a, b) {
                None => return Err(Refusal::Shape),
                Some(true) => HEADER,
                Some(false) => 0,
            };
            old_ops.clear();
            a.for_each_operand(|op| old_ops.push(op));
            let mut rewired = false;
            let mut slot = 0;
            b.for_each_operand(|op| {
                match (old_ops[slot], op) {
                    (x, y) if same_operand(x, y) => {}
                    (Operand::Const(x), Operand::Const(y))
                        if std::mem::discriminant(&x) == std::mem::discriminant(&y) =>
                    {
                        mask |= slot_bit(slot)
                    }
                    _ => rewired = true,
                }
                slot += 1;
            });
            // A rewired SSA operand changes the dataflow the masks cannot
            // describe, and an immediate of another kind could fail the
            // run, so only immediates of the same kind may differ.
            if rewired {
                return Err(Refusal::Shape);
            }
            masks[iid.index()] = mask;
        }
    }
    Ok(masks)
}

/// Whether `ins` has a `0.0` or `-0.0` immediate operand.
fn has_float_zero(ins: &Instr) -> bool {
    let z = |o: &Operand| matches!(o, Operand::Const(Imm::Float(x)) if *x == 0.0);
    match ins {
        Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => z(lhs) || z(rhs),
        Instr::Unary { val, .. } => z(val),
        Instr::Select {
            cond,
            then_val,
            else_val,
            ..
        } => z(cond) || z(then_val) || z(else_val),
        Instr::Load { ptr, .. } => z(ptr),
        Instr::Store { ptr, value, .. } => z(ptr) || z(value),
        Instr::Gep { indices: ops, .. } | Instr::Call { args: ops, .. } => ops.iter().any(z),
        Instr::Phi { incomings, .. } => incomings.iter().any(|(_, o)| z(o)),
    }
}

/// Operand equality with float immediates compared bit for bit (`0.0` and
/// `-0.0` are different edits).
fn same_operand(a: Operand, b: Operand) -> bool {
    match (a, b) {
        (Operand::Const(Imm::Float(x)), Operand::Const(Imm::Float(y))) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

fn same_term(a: &Terminator, b: &Terminator) -> bool {
    match (a, b) {
        (Terminator::Br(x), Terminator::Br(y)) => x == y,
        (
            Terminator::CondBr {
                cond: c,
                then_bb: t,
                else_bb: e,
            },
            Terminator::CondBr {
                cond: d,
                then_bb: u,
                else_bb: f,
            },
        ) => same_operand(*c, *d) && t == u && e == f,
        (Terminator::Ret(None), Terminator::Ret(None)) => true,
        (Terminator::Ret(Some(x)), Terminator::Ret(Some(y))) => same_operand(*x, *y),
        _ => false,
    }
}

/// `None` when `old` and `new` differ in kind, arity, a pinned field
/// (`gep` array, callee, call type, phi edges) or in the class of value an
/// opcode computes on (an integer op fed floats fails); otherwise whether
/// the opcode or a type differs.
fn header_diff(old: &Instr, new: &Instr) -> Option<bool> {
    use Instr::*;
    match (old, new) {
        (Binary { op: a, ty: t, .. }, Binary { op: b, ty: u, .. }) => {
            (a.is_float() == b.is_float()).then_some(a != b || t != u)
        }
        (Unary { op: a, ty: t, .. }, Unary { op: b, ty: u, .. }) => {
            (unary_class(*a) == unary_class(*b)).then_some(a != b || t != u)
        }
        (Cmp { pred: a, ty: t, .. }, Cmp { pred: b, ty: u, .. }) => {
            (t.is_float() == u.is_float()).then_some(a != b || t != u)
        }
        (Select { ty: t, .. }, Select { ty: u, .. })
        | (Load { ty: t, .. }, Load { ty: u, .. })
        | (Store { ty: t, .. }, Store { ty: u, .. }) => Some(t != u),
        (
            Gep {
                array: a,
                indices: i,
            },
            Gep {
                array: b,
                indices: j,
            },
        ) => (a == b && i.len() == j.len()).then_some(false),
        (
            Phi {
                ty: t,
                incomings: a,
            },
            Phi {
                ty: u,
                incomings: b,
            },
        ) => {
            let edges = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0);
            edges.then_some(t != u)
        }
        (
            Call {
                callee: a,
                ty: t,
                args: x,
            },
            Call {
                callee: b,
                ty: u,
                args: y,
            },
        ) => (a == b && t == u && x.len() == y.len()).then_some(false),
        _ => None,
    }
}

/// Unary opcodes that take and give the same classes of value.
fn unary_class(op: UnaryOp) -> u8 {
    match op {
        UnaryOp::Neg | UnaryOp::Not => 0,
        UnaryOp::FNeg | UnaryOp::FAbs | UnaryOp::Sqrt | UnaryOp::Exp | UnaryOp::Log => 1,
        UnaryOp::SiToFp => 2,
        UnaryOp::FpToSi => 3,
    }
}

/// The slice's state: what may differ between the two runs.
struct Taint {
    /// Per function, per SSA value.
    values: Vec<Vec<bool>>,
    /// Per function: may return a tainted value.
    returns: Vec<bool>,
    /// Per array: may hold a tainted value.
    arrays: Vec<bool>,
    /// Some array may hold a tainted value.
    any_array: bool,
    /// Whether the current pass added taint.
    changed: bool,
}

impl Taint {
    fn mark(slot: &mut bool, changed: &mut bool) {
        if !*slot {
            *slot = true;
            *changed = true;
        }
    }

    /// Whether a load through `ptr` may read a tainted value.
    fn loads_taint(&self, func: &Function, ptr: Operand) -> bool {
        match gep_array(func, ptr) {
            Some(a) => self.arrays[a.index()],
            None => self.any_array,
        }
    }

    /// A tainted value is stored through `ptr`.
    fn store_taint(&mut self, func: &Function, ptr: Operand) {
        let changed = &mut self.changed;
        match gep_array(func, ptr) {
            Some(a) => Self::mark(&mut self.arrays[a.index()], changed),
            None => self.arrays.iter_mut().for_each(|s| Self::mark(s, changed)),
        }
        self.any_array = true;
    }

    /// One forward pass over function `f` of `m`.
    fn pass(
        &mut self,
        m: &Module,
        f: FuncId,
        seeds: &[u64],
        is_entry: bool,
    ) -> Result<(), Refusal> {
        let func = m.function(f);
        let fi = f.index();
        // This function's value taint, taken out for the pass (a recursive
        // call marks it through `vals`, not `self.values`).
        let mut vals = std::mem::take(&mut self.values[fi]);
        let result = self.walk(func, fi, &mut vals, seeds, is_entry);
        self.values[fi] = vals;
        result
    }

    fn walk(
        &mut self,
        func: &Function,
        fi: usize,
        vals: &mut [bool],
        seeds: &[u64],
        is_entry: bool,
    ) -> Result<(), Refusal> {
        for blk in &func.blocks {
            for &iid in &blk.instrs {
                let instr = func.instr(iid);
                let seed = seeds.get(iid.index()).copied().unwrap_or(0);
                let mut tainted = seed & !HEADER;
                let mut slot = 0;
                instr.for_each_operand(|op| {
                    if op.as_value().is_some_and(|v| vals[v.index()]) {
                        tainted |= slot_bit(slot);
                    }
                    slot += 1;
                });
                let changed_op = seed & HEADER != 0;
                let out = match instr {
                    Instr::Binary {
                        op: BinOp::Div | BinOp::Rem,
                        ..
                    } if tainted != 0 || changed_op => return Err(Refusal::Trap),
                    Instr::Gep { .. } if tainted != 0 => return Err(Refusal::Address),
                    Instr::Gep { .. } => false,
                    Instr::Load { ptr, .. } => {
                        if tainted != 0 {
                            return Err(Refusal::Address);
                        }
                        changed_op || self.loads_taint(func, *ptr)
                    }
                    Instr::Store { ptr, .. } => {
                        if tainted & slot_bit(0) != 0 {
                            return Err(Refusal::Address);
                        }
                        if tainted != 0 || changed_op {
                            self.store_taint(func, *ptr);
                        }
                        false
                    }
                    Instr::Call { callee, .. } => {
                        let ci = callee.index();
                        let params = if ci == fi {
                            &mut *vals
                        } else {
                            &mut self.values[ci]
                        };
                        for (p, param) in params.iter_mut().enumerate().take(slot) {
                            if tainted & slot_bit(p) != 0 {
                                Self::mark(param, &mut self.changed);
                            }
                        }
                        self.returns[ci]
                    }
                    _ => tainted != 0 || changed_op,
                };
                if let (true, Some(v)) = (out, func.result_of(iid)) {
                    Self::mark(&mut vals[v.index()], &mut self.changed);
                }
            }
            let tainted = |op: Operand| op.as_value().is_some_and(|v| vals[v.index()]);
            match blk.terminator() {
                Terminator::CondBr { cond, .. } if tainted(*cond) => return Err(Refusal::Branch),
                Terminator::Ret(Some(v)) if tainted(*v) => {
                    if is_entry {
                        return Err(Refusal::Return);
                    }
                    Self::mark(&mut self.returns[fi], &mut self.changed);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The array a pointer operand addresses, when it is a direct `gep` result.
fn gep_array(func: &Function, ptr: Operand) -> Option<ArrayId> {
    let ValueDef::Instr(iid) = func.values[ptr.as_value()?.index()] else {
        return None;
    };
    match func.instr(iid) {
        Instr::Gep { array, .. } => Some(*array),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::cpu_model;
    use crate::fingerprint::fingerprint_function;
    use crate::interp::Interp;
    use crate::types::Type;

    /// The slice's verdict on `build(1.0)` edited into `build(1.5)`.
    fn verdict(build: impl Fn(f64) -> Module) -> Result<(), Refusal> {
        let (old, new) = (build(1.0), build(1.5));
        old.verify().expect("old verifies");
        new.verify().expect("new verifies");
        let fps = |m: &Module| {
            m.functions
                .iter()
                .map(fingerprint_function)
                .collect::<Vec<_>>()
        };
        counts_unchanged(&old, &fps(&old), &new, &fps(&new))
    }

    /// `main` alone, over a 4-element `f64` array `x`, returning nothing.
    fn main_only(body: impl Fn(&mut FunctionBuilder, ArrayId)) -> Module {
        let mut mb = ModuleBuilder::new("slice");
        let x = mb.array("x", Type::F64, &[4]);
        mb.function("main", &[], None, |fb| {
            body(fb, x);
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn refuses_a_phi_carried_value_at_a_branch() {
        let v = verdict(|c| {
            main_only(|fb, x| {
                let zero = fb.fconst(0.0);
                let acc = fb.counted_loop_carry(0, 4, 1, &[(Type::F64, zero)], |fb, _, acc| {
                    vec![fb.fadd(acc[0], fb.fconst(c))]
                });
                let big = fb.fcmp_gt(acc[0], fb.fconst(5.0));
                fb.if_then(big, |fb| fb.store_idx(x, &[fb.iconst(0)], zero));
            })
        });
        assert_eq!(v, Err(Refusal::Branch));
    }

    #[test]
    fn refuses_a_value_at_a_gep_index() {
        let v = verdict(|c| {
            main_only(|fb, x| {
                let i = fb.fptosi(fb.fconst(c));
                let v = fb.load_idx(x, &[i]);
                fb.store_idx(x, &[fb.iconst(0)], v);
            })
        });
        assert_eq!(v, Err(Refusal::Address));
    }

    #[test]
    fn refuses_a_value_at_an_integer_division() {
        let v = verdict(|c| {
            main_only(|fb, x| {
                let d = fb.fptosi(fb.fconst(c));
                let q = fb.sdiv(fb.iconst(8), d);
                let f = fb.sitofp(q);
                fb.store_idx(x, &[fb.iconst(0)], f);
            })
        });
        assert_eq!(v, Err(Refusal::Trap));
    }

    #[test]
    fn refuses_a_value_at_the_entry_return() {
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            mb.function("main", &[], Some(Type::F64), |fb| {
                let v = fb.load_idx(x, &[fb.iconst(1)]);
                let r = fb.fmul(v, fb.fconst(c));
                fb.ret(Some(r));
            });
            mb.finish()
        });
        assert_eq!(v, Err(Refusal::Return));
    }

    #[test]
    fn refuses_a_stored_value_reloaded_into_a_branch() {
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            let y = mb.array("y", Type::F64, &[4]);
            mb.function("main", &[], None, |fb| {
                fb.counted_loop(0, 4, 1, |fb, i| {
                    let v = fb.load_idx(x, &[i]);
                    let w = fb.fmul(v, fb.fconst(c));
                    fb.store_idx(y, &[i], w);
                });
                let back = fb.load_idx(y, &[fb.iconst(2)]);
                let big = fb.fcmp_gt(back, fb.fconst(1.0));
                fb.if_then(big, |fb| fb.store_idx(x, &[fb.iconst(0)], back));
                fb.ret(None);
            });
            mb.finish()
        });
        assert_eq!(v, Err(Refusal::Branch));
    }

    #[test]
    fn refuses_a_call_argument_the_callee_branches_on() {
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            let clamp = mb.function("clamp", &[Type::F64], None, |fb| {
                let p = fb.param(0);
                let big = fb.fcmp_gt(p, fb.fconst(1.0));
                fb.if_then(big, |fb| fb.store_idx(x, &[fb.iconst(0)], p));
                fb.ret(None);
            });
            mb.function("main", &[], None, |fb| {
                let v = fb.load_idx(x, &[fb.iconst(1)]);
                let w = fb.fadd(v, fb.fconst(c));
                fb.call(clamp, &[w], None);
                fb.ret(None);
            });
            mb.finish()
        });
        assert_eq!(v, Err(Refusal::Branch));
    }

    #[test]
    fn refuses_a_callee_return_the_caller_branches_on() {
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            let scaled = mb.function("scaled", &[], Some(Type::F64), |fb| {
                let v = fb.load_idx(x, &[fb.iconst(1)]);
                let w = fb.fmul(v, fb.fconst(c));
                fb.ret(Some(w));
            });
            mb.function("main", &[], None, |fb| {
                let r = fb.call(scaled, &[], Some(Type::F64)).expect("value");
                let big = fb.fcmp_gt(r, fb.fconst(1.0));
                fb.if_then(big, |fb| fb.store_idx(x, &[fb.iconst(0)], r));
                fb.ret(None);
            });
            mb.finish()
        });
        assert_eq!(v, Err(Refusal::Branch));
    }

    #[test]
    fn refuses_a_value_another_function_reloads_into_a_branch() {
        // `reader` has no seed, no parameter and calls nothing: only the
        // array `writer` stores into carries the taint to it, and it comes
        // first, so a walk before the store must be redone after it.
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            let y = mb.array("y", Type::F64, &[4]);
            let reader = mb.function("reader", &[], None, |fb| {
                let back = fb.load_idx(y, &[fb.iconst(2)]);
                let big = fb.fcmp_gt(back, fb.fconst(1.0));
                fb.if_then(big, |fb| fb.store_idx(x, &[fb.iconst(0)], back));
                fb.ret(None);
            });
            let writer = mb.function("writer", &[], None, |fb| {
                let v = fb.load_idx(x, &[fb.iconst(1)]);
                let w = fb.fmul(v, fb.fconst(c));
                fb.store_idx(y, &[fb.iconst(2)], w);
                fb.ret(None);
            });
            mb.function("main", &[], None, |fb| {
                fb.call(writer, &[], None);
                fb.call(reader, &[], None);
                fb.ret(None);
            });
            mb.finish()
        });
        assert_eq!(v, Err(Refusal::Branch));
    }

    #[test]
    fn refuses_a_shape_change() {
        let v = verdict(|c| {
            main_only(|fb, x| {
                let v = fb.load_idx(x, &[fb.iconst(1)]);
                let mut w = fb.fmul(v, fb.fconst(2.0));
                if c > 1.0 {
                    w = fb.fadd(w, fb.fconst(c));
                }
                fb.store_idx(x, &[fb.iconst(0)], w);
            })
        });
        assert_eq!(v, Err(Refusal::Shape));
    }

    #[test]
    fn proves_float_math_through_an_array() {
        let v = verdict(|c| {
            let mut mb = ModuleBuilder::new("slice");
            let x = mb.array("x", Type::F64, &[4]);
            let y = mb.array("y", Type::F64, &[4]);
            mb.function("main", &[], None, |fb| {
                fb.counted_loop(0, 4, 1, |fb, i| {
                    let v = fb.load_idx(x, &[i]);
                    let w = fb.fmul(v, fb.fconst(c));
                    fb.store_idx(y, &[i], w);
                });
                fb.counted_loop(0, 4, 1, |fb, i| {
                    let v = fb.load_idx(y, &[i]);
                    let w = fb.fadd(v, fb.fconst(1.0));
                    let w = fb.sqrt(w);
                    fb.store_idx(x, &[i], w);
                });
                fb.ret(None);
            });
            mb.finish()
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn proves_an_opcode_swap_and_its_cycles_match_a_fresh_run() {
        let build = |op: BinOp| {
            main_only(|fb, x| {
                fb.counted_loop(0, 4, 1, |fb, i| {
                    let v = fb.load_idx(x, &[i]);
                    let w = fb.binary(op, Type::F64, v, fb.fconst(3.0));
                    fb.store_idx(x, &[i], w);
                });
            })
        };
        let (old, new) = (build(BinOp::FAdd), build(BinOp::FMul));
        let fps = |m: &Module| {
            m.functions
                .iter()
                .map(fingerprint_function)
                .collect::<Vec<_>>()
        };
        assert_eq!(counts_unchanged(&old, &fps(&old), &new, &fps(&new)), Ok(()));
        let parent = Interp::new(&old).run(&[]).expect("old runs");
        let fresh = Interp::new(&new).run(&[]).expect("new runs");
        assert_eq!(parent.block_counts, fresh.block_counts);
        assert_ne!(parent.total_cycles, fresh.total_cycles, "fmul costs more");
        let derived = cpu_model::total_cycles(&new, &parent.block_counts);
        assert_eq!(derived, fresh.total_cycles);
    }

    #[test]
    fn signed_zero_nudges_are_edits() {
        let build = |z: f64| {
            let mut mb = ModuleBuilder::new("slice");
            mb.function("main", &[], Some(Type::F64), |fb| {
                let r = fb.fdiv(fb.fconst(1.0), fb.fconst(z));
                fb.ret(Some(r));
            });
            mb.finish()
        };
        let (old, new) = (build(0.0), build(-0.0));
        let fps = |m: &Module| {
            m.functions
                .iter()
                .map(fingerprint_function)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counts_unchanged(&old, &[0], &new, &[1]),
            Err(Refusal::Return),
            "-0.0 is a different immediate from 0.0"
        );
        assert_eq!(counts_unchanged(&old, &fps(&old), &old, &fps(&old)), Ok(()));
    }
}
