//! Dominator-based global value numbering / common-subexpression
//! elimination.

use super::{Feeds, Pass};
use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{BinOp, CmpPred, Imm, Instr, Operand, UnaryOp};
use crate::module::{ArrayDecl, ArrayId, BlockId, Function, InstrId, ValueId};
use crate::types::Type;
use std::hash::{Hash, Hasher};

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

    /// Rewriting a deleted copy's uses to the survivor can give a phi equal
    /// incomings (constfold), and the copies are left unplaced (compact).
    /// It never makes an operand constant or touches a terminator's
    /// targets (simplify-cfg); every operand of a deleted copy is still used
    /// by the survivor, which has the same type (dce); and one walk finds
    /// every dominated copy, so it never feeds itself.
    fn feeds(&self) -> Feeds {
        Feeds::Only(&["constfold", "compact"])
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

/// A multiply–rotate hasher for expression keys. Only lookups read the
/// table — its layout never reaches the output — so a cheap hash changes
/// nothing but the time spent.
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

/// What an expression computes, apart from its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Binary(BinOp, Type),
    Unary(UnaryOp, Type),
    Cmp(CmpPred, Type),
    Select(Type),
    Gep(ArrayId),
}

/// A pure instruction's operands: up to three copied, or a gep's indices
/// borrowed, so reading an expression allocates nothing.
enum Operands<'a> {
    Inline([Operand; 3], usize),
    Borrowed(&'a [Operand]),
}

impl Operands<'_> {
    fn as_slice(&self) -> &[Operand] {
        match self {
            Operands::Inline(ops, n) => &ops[..*n],
            Operands::Borrowed(ops) => ops,
        }
    }
}

/// `instr` as an expression, or `None` when it is not a pure op GVN may
/// delete.
fn expr(instr: &Instr) -> Option<(Op, Operands<'_>)> {
    let pad = Operand::int(0);
    Some(match *instr {
        Instr::Binary { op, ty, lhs, rhs } => {
            (Op::Binary(op, ty), Operands::Inline([lhs, rhs, pad], 2))
        }
        Instr::Unary { op, ty, val } => (Op::Unary(op, ty), Operands::Inline([val, pad, pad], 1)),
        Instr::Cmp { pred, ty, lhs, rhs } => {
            (Op::Cmp(pred, ty), Operands::Inline([lhs, rhs, pad], 2))
        }
        Instr::Select {
            cond,
            ty,
            then_val,
            else_val,
        } => (
            Op::Select(ty),
            Operands::Inline([cond, then_val, else_val], 3),
        ),
        Instr::Gep { array, ref indices } => (Op::Gep(array), Operands::Borrowed(indices)),
        Instr::Load { .. } | Instr::Store { .. } | Instr::Phi { .. } | Instr::Call { .. } => {
            return None
        }
    })
}

/// The hash of an expression's key: its op and its operands' keys.
fn expr_hash(repl: &Repl, op: Op, operands: &[Operand]) -> u64 {
    let mut h = ExprHasher::default();
    op.hash(&mut h);
    for &o in operands {
        op_key(repl, o).hash(&mut h);
    }
    h.finish()
}

/// One expression-table entry: the latest definition of an expression, its
/// result, and where its scope ends: the preorder number just past its
/// block's dominator subtree.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    def: InstrId,
    result: ValueId,
    end: u32,
}

/// An open-addressing expression table with linear probing, sized once for
/// every candidate instruction of the function at a load of at most one
/// half, so it never grows. Keys are not stored: a slot names its defining
/// instruction, and a probe compares that instruction with the candidate.
struct Table {
    slots: Vec<Option<Slot>>,
    shift: u32,
}

impl Table {
    fn for_candidates(n: usize) -> Self {
        let cap = (2 * n).next_power_of_two().max(8);
        Table {
            slots: vec![None; cap],
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// The slot holding the expression `(op, operands)`, or the empty slot
    /// where it belongs.
    fn find(&self, func: &Function, repl: &Repl, hash: u64, op: Op, operands: &[Operand]) -> usize {
        let same = |def: InstrId| {
            let (op2, operands2) = expr(func.instr(def)).expect("a slot holds a pure op");
            let operands2 = operands2.as_slice();
            op == op2
                && operands.len() == operands2.len()
                && operands
                    .iter()
                    .zip(operands2)
                    .all(|(&x, &y)| op_key(repl, x) == op_key(repl, y))
        };
        let mask = self.slots.len() - 1;
        // The multiply leaves its best-mixed bits at the top.
        let mut i = (hash >> self.shift) as usize;
        loop {
            match self.slots[i] {
                Some(s) if s.hash == hash && same(s.def) => return i,
                Some(_) => i = (i + 1) & mask,
                None => return i,
            }
        }
    }
}

/// The dominator tree's preorder (children in block order) and, per block,
/// the preorder number just past its subtree: `a` dominates `b` iff
/// `pre(a) <= pre(b) < end[a]`.
struct Preorder {
    order: Vec<BlockId>,
    end: Vec<u32>,
}

fn dom_preorder(func: &Function, dom: &DomTree) -> Preorder {
    let n = func.blocks.len();
    // Children in block order, as one flat list: block `p`'s children are
    // `kids[first[p]..first[p + 1]]`.
    let mut first = vec![0u32; n + 1];
    for b in func.block_ids() {
        if let Some(p) = dom.idom_of(b) {
            first[p.index() + 1] += 1;
        }
    }
    for p in 0..n {
        first[p + 1] += first[p];
    }
    let mut fill = first.clone();
    let mut kids = vec![BlockId(0); first[n] as usize];
    for b in func.block_ids() {
        if let Some(p) = dom.idom_of(b) {
            kids[fill[p.index()] as usize] = b;
            fill[p.index()] += 1;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut end = vec![0u32; n];
    let mut stack = vec![func.entry()];
    while let Some(b) = stack.pop() {
        order.push(b);
        let (lo, hi) = (first[b.index()] as usize, first[b.index() + 1] as usize);
        stack.extend(kids[lo..hi].iter().rev());
    }
    // A subtree is contiguous in the preorder and its blocks follow its
    // root, so a reverse sweep extends each parent's end past its
    // children's.
    for (i, &b) in order.iter().enumerate().rev() {
        end[b.index()] = end[b.index()].max(i as u32 + 1);
        if let Some(p) = dom.idom_of(b) {
            end[p.index()] = end[p.index()].max(end[b.index()]);
        }
    }
    Preorder { order, end }
}

fn gvn_function(func: &mut Function) -> bool {
    let cfg = Cfg::compute(func);
    let dom = DomTree::dominators(func, &cfg);
    let tree = dom_preorder(func, &dom);

    // Blocks are visited in dominator-tree preorder, so a block's
    // dominators are exactly the visited blocks whose subtree contains it.
    // Each expression's slot holds its latest definition. That definition
    // is in scope while the visit is inside its block's subtree; once the
    // visit leaves, it is stale and the next definition replaces it. A
    // definition in scope is never replaced — everything its block
    // dominates finds it — so the one table answers like a scoped one.
    let candidates = tree.order.iter().map(|&b| func.block(b).instrs.len()).sum();
    let mut table = Table::for_candidates(candidates);
    let mut repl: Vec<Option<ValueId>> = vec![None; func.values.len()];
    let mut dead = vec![false; func.instrs.len()];
    let mut any_dead = false;
    for (pre, &b) in tree.order.iter().enumerate() {
        let pre = pre as u32;
        for &iid in &func.block(b).instrs {
            let Some((op, operands)) = expr(func.instr(iid)) else {
                continue;
            };
            let operands = operands.as_slice();
            let hash = expr_hash(&repl, op, operands);
            let result = func.result_of(iid).expect("pure instr has a result");
            let at = table.find(func, &repl, hash, op, operands);
            // Every slot was filled earlier in the preorder, so it is in
            // scope iff the visit has not yet passed the end of its subtree.
            match table.slots[at] {
                Some(s) if pre < s.end => {
                    repl[result.index()] = Some(s.result);
                    dead[iid.index()] = true;
                    any_dead = true;
                }
                _ => {
                    table.slots[at] = Some(Slot {
                        hash,
                        def: iid,
                        result,
                        end: tree.end[b.index()],
                    });
                }
            }
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
