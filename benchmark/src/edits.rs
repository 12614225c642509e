//! The seeded single-instruction edit generator.
//!
//! An edit nudges one floating-point immediate in a value-only operand slot
//! (never a pointer, index or branch condition), so the edited module still
//! verifies and runs. Each drawn value is new with overwhelming probability,
//! so an edit is a never-seen state for every cache in the system; a
//! revert restores the original body and with it every content key.

use crate::rng::Rng;
use cayman::ir::{FuncId, Function, Imm, Instr, Module, Operand};

/// One editable operand: `module.functions[func].instrs[instr]`, slot
/// `slot` of its value operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    pub func: usize,
    pub instr: usize,
    pub slot: usize,
}

fn value_slots(instr: &mut Instr) -> Vec<&mut Operand> {
    match instr {
        Instr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
        Instr::Unary { val, .. } => vec![val],
        Instr::Select {
            then_val, else_val, ..
        } => vec![then_val, else_val],
        Instr::Store { value, .. } => vec![value],
        Instr::Phi { incomings, .. } => incomings.iter_mut().map(|(_, v)| v).collect(),
        Instr::Call { args, .. } => args.iter_mut().collect(),
        _ => Vec::new(),
    }
}

/// Every float-immediate value slot of `m`, in a stable order.
pub fn sites(m: &Module) -> Vec<Site> {
    let mut out = Vec::new();
    for (func, f) in m.functions.iter().enumerate() {
        for (instr, ins) in f.instrs.iter().enumerate() {
            let mut probe = ins.clone();
            for (slot, op) in value_slots(&mut probe).into_iter().enumerate() {
                if matches!(op, Operand::Const(Imm::Float(_))) {
                    out.push(Site { func, instr, slot });
                }
            }
        }
    }
    out
}

/// A fresh edit: which site, and the relative nudge applied to it.
#[derive(Debug, Clone, Copy)]
pub struct FreshEdit {
    pub site: Site,
    pub nudge: f64,
}

impl FreshEdit {
    /// Draws an edit over `sites` (non-empty).
    pub fn draw(rng: &mut Rng, sites: &[Site]) -> FreshEdit {
        FreshEdit {
            site: sites[rng.below(sites.len())],
            nudge: 0.25 + 0.5 * rng.unit(),
        }
    }

    /// The edited function: `m`'s body with the one immediate `v` replaced
    /// by `v + nudge · max(1, |v|)` (scaled so the value always changes).
    pub fn body(&self, m: &Module) -> (FuncId, Function) {
        let mut body = m.functions[self.site.func].clone();
        let mut slots = value_slots(&mut body.instrs[self.site.instr]);
        let op = &mut slots[self.site.slot];
        if let Operand::Const(Imm::Float(v)) = **op {
            **op = Operand::float(v + self.nudge * v.abs().max(1.0));
        }
        (FuncId(self.site.func as u32), body)
    }

    /// The whole edited module.
    pub fn module(&self, m: &Module) -> Module {
        let (func, body) = self.body(m);
        let mut out = m.clone();
        out.functions[func.index()] = body;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_edits_always_verify_and_change_one_immediate() {
        let mut rng = Rng::stream(11, 0);
        let mut editable = 0;
        for w in cayman::workloads::full() {
            let s = sites(&w.module);
            if s.is_empty() {
                continue;
            }
            editable += 1;
            for _ in 0..8 {
                let e = FreshEdit::draw(&mut rng, &s);
                let edited = e.module(&w.module);
                edited.verify().unwrap_or_else(|err| {
                    panic!("{}: edit {e:?} breaks verification: {err}", w.name)
                });
                let (f, body) = e.body(&w.module);
                let before = &w.module.functions[f.index()];
                let changed = before
                    .instrs
                    .iter()
                    .zip(&body.instrs)
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(changed, 1, "{}: exactly one instruction differs", w.name);
            }
        }
        assert_eq!(editable, 120, "edit-loop's kernel set");
    }

    #[test]
    fn draws_repeat_per_seed() {
        let w = cayman::workloads::by_name("atax").expect("atax");
        let s = sites(&w.module);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 9);
            (0..16)
                .map(|_| {
                    let e = FreshEdit::draw(&mut rng, &s);
                    (e.site, e.nudge.to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
