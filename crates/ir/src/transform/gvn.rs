//! Dominator-based global value numbering / common-subexpression
//! elimination.

use super::Pass;
use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{BinOp, CmpPred, Imm, Instr, Operand, UnaryOp};
use crate::module::{ArrayDecl, ArrayId, BlockId, Function, ValueId};
use crate::types::Type;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Deletes pure instructions that recompute an expression already computed
/// by a dominating instruction with identical SSA operands, rewriting uses
/// to the surviving value.
///
/// Only pure ops participate: binary/unary arithmetic, comparisons, selects
/// and geps. Loads are excluded (memory may change between the two sites);
/// stores, calls and phis likewise. Deleting the dominated copy is trap-safe
/// because the dominating instance executes first on every path with the
/// same operand values — if either would trap, the first one already did.
///
/// Keys are purely syntactic: no commutative normalization (for floats that
/// would conflate `NaN`-payload-sensitive operand orders) and constants
/// compare bit-exactly (`-0.0` ≠ `0.0`).
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        gvn_function(func)
    }
}

/// Operand in a value-number key; float constants keyed by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKey {
    Val(ValueId),
    Int(i64),
    Float(u64),
    Bool(bool),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Binary(BinOp, Type, OpKey, OpKey),
    Unary(UnaryOp, Type, OpKey),
    Cmp(CmpPred, Type, OpKey, OpKey),
    Select(Type, OpKey, OpKey, OpKey),
    Gep(ArrayId, Vec<OpKey>),
}

/// A multiply–rotate hasher for the expression table. Only lookups read
/// the table — its iteration order never reaches the output — so a cheap
/// hash changes nothing but the time spent.
#[derive(Default)]
struct ExprHasher(u64);

impl Hasher for ExprHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `repl[v]`: the surviving value a deleted instruction's result `v` now
/// stands for.
type Repl = [Option<ValueId>];

fn op_key(repl: &Repl, op: Operand) -> OpKey {
    match op {
        Operand::Value(v) => OpKey::Val(repl[v.index()].unwrap_or(v)),
        Operand::Const(Imm::Int(v)) => OpKey::Int(v),
        Operand::Const(Imm::Float(v)) => OpKey::Float(v.to_bits()),
        Operand::Const(Imm::Bool(v)) => OpKey::Bool(v),
    }
}

fn expr_key(repl: &Repl, instr: &Instr) -> Option<ExprKey> {
    let k = |op: &Operand| op_key(repl, *op);
    Some(match instr {
        Instr::Binary { op, ty, lhs, rhs } => ExprKey::Binary(*op, *ty, k(lhs), k(rhs)),
        Instr::Unary { op, ty, val } => ExprKey::Unary(*op, *ty, k(val)),
        Instr::Cmp { pred, ty, lhs, rhs } => ExprKey::Cmp(*pred, *ty, k(lhs), k(rhs)),
        Instr::Select {
            cond,
            ty,
            then_val,
            else_val,
        } => ExprKey::Select(*ty, k(cond), k(then_val), k(else_val)),
        Instr::Gep { array, indices } => {
            ExprKey::Gep(*array, indices.iter().map(|i| op_key(repl, *i)).collect())
        }
        Instr::Load { .. } | Instr::Store { .. } | Instr::Phi { .. } | Instr::Call { .. } => {
            return None
        }
    })
}

fn gvn_function(func: &mut Function) -> bool {
    let cfg = Cfg::compute(func);
    let dom = DomTree::dominators(func, &cfg);
    let n = cfg.block_count();
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for b in func.block_ids() {
        if let Some(p) = dom.idom_of(b) {
            children[p.index()].push(b);
        }
    }

    // Each expression maps to its latest definition and that definition's
    // block. The definition is in scope exactly while its block is open on
    // the dominator-tree walk below (it dominates the block being visited);
    // a closed one is stale and the next definition replaces it. Once a
    // block defines an expression, its whole subtree finds that definition
    // in scope, so nothing dominated ever replaces it: the table answers
    // like a scoped one, without cloning a key or unwinding a scope.
    let mut table: HashMap<ExprKey, (ValueId, BlockId), BuildHasherDefault<ExprHasher>> =
        HashMap::default();
    let mut open = vec![false; n];
    let mut repl: Vec<Option<ValueId>> = vec![None; func.values.len()];
    let mut dead = vec![false; func.instrs.len()];
    let mut any_dead = false;

    // Dominator-tree DFS with explicit enter/exit events.
    enum Ev {
        Enter(BlockId),
        Exit(BlockId),
    }
    let mut stack = vec![Ev::Enter(func.entry())];
    while let Some(ev) = stack.pop() {
        match ev {
            Ev::Enter(b) => {
                open[b.index()] = true;
                for &iid in &func.block(b).instrs {
                    let Some(key) = expr_key(&repl, func.instr(iid)) else {
                        continue;
                    };
                    let result = func.result_of(iid).expect("pure instr has a result");
                    match table.entry(key) {
                        Entry::Occupied(e) if open[e.get().1.index()] => {
                            repl[result.index()] = Some(e.get().0);
                            dead[iid.index()] = true;
                            any_dead = true;
                        }
                        Entry::Occupied(mut e) => {
                            e.insert((result, b));
                        }
                        Entry::Vacant(e) => {
                            e.insert((result, b));
                        }
                    }
                }
                stack.push(Ev::Exit(b));
                for &c in children[b.index()].iter().rev() {
                    stack.push(Ev::Enter(c));
                }
            }
            Ev::Exit(b) => open[b.index()] = false,
        }
    }

    if !any_dead {
        return false;
    }
    let rewrite = |op: &mut Operand| {
        if let Operand::Value(v) = op {
            if let Some(s) = repl[v.index()] {
                *op = Operand::Value(s);
            }
        }
    };
    for instr in &mut func.instrs {
        instr.for_each_operand_mut(rewrite);
    }
    for block in &mut func.blocks {
        if let Some(term) = &mut block.term {
            term.for_each_operand_mut(rewrite);
        }
    }
    for block in &mut func.blocks {
        block.instrs.retain(|iid| !dead[iid.index()]);
    }
    func.invalidate_block_map();
    true
}
