//! CFG simplification: constant-branch folding, unreachable-block deletion
//! and straight-line block merging, with phi maintenance on every edit.

use super::{replace_all_uses, Feeds, Pass};
use crate::instr::{Imm, Instr, Operand, Terminator};
use crate::module::{ArrayDecl, BlockId, Function};

/// Simplifies each function's CFG:
///
/// 1. `br %c ? bbX : bbY` with a constant (or duplicated-target) condition
///    becomes `br bbTaken`, removing the dead edge's phi incomings;
/// 2. blocks unreachable from the entry are physically deleted (the verifier
///    rejects unreachable blocks, so they cannot merely be unlinked) and
///    `BlockId`s renumbered;
/// 3. a block whose sole successor has it as its sole predecessor absorbs
///    that successor; single-incoming phis of the absorbed block are
///    replaced by their incoming operand, and phis in the absorbed block's
///    successors are retargeted to the surviving block.
pub struct SimplifyCfg;

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }

    /// A pruned phi can be left with equal incomings (constfold), a merge
    /// or a deleted edge makes blocks dominate others (gvn), a deleted
    /// incoming can take a value's last use (dce), and deleted blocks and
    /// forwarded phis leave unplaced instructions (compact). It repeats its
    /// rewrites until none fires, so it never feeds itself.
    fn feeds(&self) -> Feeds {
        Feeds::Only(&["constfold", "gvn", "dce", "compact"])
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        simplify_function(func)
    }
}

/// One function's simplify loop: iterate the three rewrites locally until
/// none fires (they feed each other), then invalidate the block map once.
fn simplify_function(func: &mut Function) -> bool {
    let mut local = false;
    loop {
        let mut round = false;
        round |= fold_constant_branches(func);
        round |= delete_unreachable_blocks(func);
        round |= merge_block_chains(func);
        if !round {
            break;
        }
        local = true;
    }
    if local {
        func.invalidate_block_map();
    }
    local
}

/// The phis of `block` (they are required to be at the top).
fn phi_range(func: &Function, b: BlockId) -> Vec<crate::module::InstrId> {
    func.block(b)
        .instrs
        .iter()
        .copied()
        .take_while(|&iid| matches!(func.instr(iid), Instr::Phi { .. }))
        .collect()
}

/// Removes one phi incoming for `pred` from every phi of `block` (exactly
/// one: duplicate edges contribute one incoming per edge, and dropping one
/// edge must drop exactly one incoming — the *last* matching entry, keeping
/// the first edge's value).
fn remove_phi_incoming(func: &mut Function, block: BlockId, pred: BlockId) {
    for iid in phi_range(func, block) {
        if let Instr::Phi { incomings, .. } = &mut func.instrs[iid.index()] {
            if let Some(pos) = incomings.iter().rposition(|(b, _)| *b == pred) {
                incomings.remove(pos);
            }
        }
    }
}

fn fold_constant_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for b in 0..func.blocks.len() {
        let b = BlockId(b as u32);
        let Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        }) = func.blocks[b.index()].term.clone()
        else {
            continue;
        };
        if then_bb == else_bb {
            // Both edges land on the same block: drop the duplicate edge.
            func.blocks[b.index()].term = Some(Terminator::Br(then_bb));
            remove_phi_incoming(func, then_bb, b);
            changed = true;
        } else if let Operand::Const(Imm::Bool(v)) = cond {
            let (taken, dead) = if v {
                (then_bb, else_bb)
            } else {
                (else_bb, then_bb)
            };
            func.blocks[b.index()].term = Some(Terminator::Br(taken));
            remove_phi_incoming(func, dead, b);
            changed = true;
        }
    }
    changed
}

fn delete_unreachable_blocks(func: &mut Function) -> bool {
    let n = func.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![func.entry()];
    reachable[func.entry().index()] = true;
    while let Some(b) = stack.pop() {
        for s in func.block(b).terminator().successors() {
            if !reachable[s.index()] {
                reachable[s.index()] = true;
                stack.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return false;
    }
    // Drop phi incomings that arrive from dying blocks.
    for b in 0..n {
        if !reachable[b] {
            continue;
        }
        for iid in phi_range(func, BlockId(b as u32)) {
            if let Instr::Phi { incomings, .. } = &mut func.instrs[iid.index()] {
                incomings.retain(|(p, _)| reachable[p.index()]);
            }
        }
    }
    // Renumber surviving blocks and rewrite every BlockId.
    let mut map = vec![u32::MAX; n];
    let mut kept = 0u32;
    for (b, &r) in reachable.iter().enumerate() {
        if r {
            map[b] = kept;
            kept += 1;
        }
    }
    let mut old_blocks = std::mem::take(&mut func.blocks);
    for (b, block) in old_blocks.iter_mut().enumerate() {
        if !reachable[b] {
            continue;
        }
        if let Some(term) = &mut block.term {
            term.for_each_successor_mut(|s| *s = BlockId(map[s.index()]));
        }
        func.blocks.push(std::mem::replace(
            block,
            crate::module::Block {
                name: String::new(),
                instrs: Vec::new(),
                term: None,
            },
        ));
    }
    for instr in &mut func.instrs {
        if let Instr::Phi { incomings, .. } = instr {
            for (p, _) in incomings {
                if map[p.index()] != u32::MAX {
                    *p = BlockId(map[p.index()]);
                }
            }
        }
    }
    true
}

fn merge_block_chains(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let Some((a, b)) = find_mergeable_pair(func) else {
            return changed;
        };
        // Single-incoming phis of `b` become plain copies of their operand.
        for iid in phi_range(func, b) {
            let Instr::Phi { incomings, .. } = func.instr(iid).clone() else {
                unreachable!()
            };
            debug_assert_eq!(incomings.len(), 1, "sole-pred block phi has one incoming");
            let (_, operand) = incomings[0];
            if let Some(result) = func.result_of(iid) {
                replace_all_uses(func, result, operand);
            }
            func.blocks[b.index()].instrs.retain(|&i| i != iid);
        }
        // Move `b`'s body and terminator into `a`.
        let b_instrs = std::mem::take(&mut func.blocks[b.index()].instrs);
        let b_term = func.blocks[b.index()].term.take();
        func.blocks[a.index()].instrs.extend(b_instrs);
        func.blocks[a.index()].term = b_term;
        // `b`'s successors now see `a` as the predecessor on those edges.
        for s in func.blocks[a.index()].terminator().successors() {
            for iid in phi_range(func, s) {
                if let Instr::Phi { incomings, .. } = &mut func.instrs[iid.index()] {
                    for (p, _) in incomings {
                        if *p == b {
                            *p = a;
                        }
                    }
                }
            }
        }
        // `b` is now empty and unreachable; give it a self-loop terminator so
        // successor computation stays total until deletion removes it.
        func.blocks[b.index()].term = Some(Terminator::Br(b));
        delete_unreachable_blocks(func);
        changed = true;
    }
}

/// Finds `(a, b)` where `a` ends in `br b`, `b != entry`, `a != b`, and `a`
/// is `b`'s only predecessor (over one edge).
fn find_mergeable_pair(func: &Function) -> Option<(BlockId, BlockId)> {
    let n = func.blocks.len();
    let mut pred_edges = vec![0u32; n];
    let mut last_pred = vec![BlockId(u32::MAX); n];
    for b in func.block_ids() {
        for s in func.block(b).terminator().successors() {
            pred_edges[s.index()] += 1;
            last_pred[s.index()] = b;
        }
    }
    for a in func.block_ids() {
        if let Terminator::Br(b) = *func.block(a).terminator() {
            if b != func.entry()
                && b != a
                && pred_edges[b.index()] == 1
                && last_pred[b.index()] == a
            {
                return Some((a, b));
            }
        }
    }
    None
}
