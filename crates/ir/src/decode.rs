//! Pre-decoded execution engine: flat opcode streams over a slot-indexed
//! register file.
//!
//! [`decode`] lowers each [`Function`] once into a [`DecodedFunc`]:
//!
//! * every block becomes a flat `Box<[DecodedOp]>` — a compact op enum whose
//!   operand slots are already resolved to register indices ([`Opnd::Reg`])
//!   or inline immediates ([`Opnd::Imm`]), so execution never touches the
//!   instruction arena, operand `Vec`s, or `result_of` lookups;
//! * phi moves are compiled into per-predecessor edge tables
//!   ([`EdgeMoves`]) applied at the branch site — no per-step incoming
//!   search and no `phi_updates` allocation (conflicting move sets are
//!   flagged `parallel` and applied through a reusable scratch buffer);
//! * terminators become direct block/edge indices ([`DecodedTerm`]);
//! * the register file is a flat `Vec<Value>` with **no** `Option` wrapping:
//!   a one-time, verifier-equivalent init check at decode time (definitions
//!   dominate uses; phi incomings checked at the predecessor edge;
//!   same-block defs precede uses) replaces the walker's per-read unwraps.
//!
//! Register slot `i` holds `ValueId(i)` (parameters first, then instruction
//! results, mirroring [`Function::values`]); one extra trailing *trash* slot
//! receives results of value-producing instructions whose result is unused,
//! so their side effects (division-by-zero, bounds errors) are preserved.
//!
//! `decode` is deliberately conservative: any structural irregularity the
//! init check cannot prove safe — missing terminators, out-of-range targets
//! or value ids, phis after non-phis or in the entry block, missing phi
//! incomings, unreachable blocks, gep/call shape mismatches — makes it
//! return `None`, and [`crate::interp::Interp::new`] falls back to the
//! reference walker so error *and* panic behavior on unverified modules
//! never diverges. Every verified module decodes.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::instr::{BinOp, CmpPred, Imm, Instr, Operand, Terminator, UnaryOp};
use crate::interp::{exec_binary, exec_cmp, exec_unary, InterpError, Memory, Value};
use crate::module::{ArrayId, BlockId, FuncId, Function, Module, ValueDef};
use crate::types::Type;
use std::collections::HashMap;

/// Sentinel edge index for branches into blocks without phis.
const NO_EDGE: u32 = u32::MAX;

/// A decoded operand: a register slot or an inline immediate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    /// Register slot (= `ValueId` index).
    Reg(u32),
    /// Immediate, already lifted to a dynamic [`Value`].
    Imm(Value),
}

#[inline(always)]
fn ev(regs: &[Value], o: Opnd) -> Value {
    match o {
        Opnd::Reg(r) => regs[r as usize],
        Opnd::Imm(v) => v,
    }
}

fn imm_value(imm: Imm) -> Value {
    match imm {
        Imm::Int(v) => Value::I(v),
        Imm::Float(v) => Value::F(v),
        Imm::Bool(v) => Value::B(v),
    }
}

/// One decoded gep dimension: index operand plus the statically known
/// stride/extent of that dimension.
#[derive(Debug, Clone)]
pub(crate) struct GepDim {
    idx: Opnd,
    stride: i64,
    size: usize,
    /// Dimension number, kept for the out-of-bounds error message.
    dim: u32,
}

/// A decoded instruction. `dst` slots for value-producing ops whose result
/// is unused point at the trash register.
#[derive(Debug, Clone)]
pub(crate) enum DecodedOp {
    Binary {
        op: BinOp,
        ty: Type,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    Unary {
        op: UnaryOp,
        dst: u32,
        val: Opnd,
    },
    Cmp {
        pred: CmpPred,
        ty: Type,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    Select {
        dst: u32,
        cond: Opnd,
        then_val: Opnd,
        else_val: Opnd,
    },
    Gep {
        dst: u32,
        array: ArrayId,
        dims: Box<[GepDim]>,
    },
    /// `Gep` whose trailing indices are integer constants already proven in
    /// bounds at decode time: their contribution is pre-summed into `base`,
    /// and only the variable prefix `dims` is evaluated and bounds-checked
    /// at runtime. Since the folded checks always pass, the remaining
    /// checks fire in the same order with the same messages as the generic
    /// form. After `-O1` normalization most fixed-column/row accesses take
    /// this path.
    GepConst {
        dst: u32,
        array: ArrayId,
        dims: Box<[GepDim]>,
        base: i64,
    },
    Load {
        dst: u32,
        ptr: Opnd,
    },
    Store {
        ptr: Opnd,
        value: Opnd,
    },
    Call {
        callee: FuncId,
        /// `Some` iff the instruction's result type is non-void (trash slot
        /// when the result is unused) — mirrors the walker's arity matching.
        dst: Option<u32>,
        args: Box<[Opnd]>,
    },
    // The hottest arithmetic patterns of the profiled kernels, specialised
    // at decode time so execution skips the generic `(op, ty)` dispatch of
    // `exec_binary`/`exec_cmp`. Semantics — including operand evaluation
    // order and type-confusion errors — are identical to the generic forms.
    FAdd {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    FSub {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    FMul {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    FDiv {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// `I64` add (the only integer width with no narrowing step).
    IAdd64 {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// `I64` subtract — with `IAnd64` it was 83% of the remaining generic
    /// `(op, ty)` dispatch on the corpus (EXPERIMENTS.md dispatch mix).
    ISub64 {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// `I64` bitwise and (`&` needs no narrowing at any width, but only the
    /// `I64` form is hot enough to earn a fast path).
    IAnd64 {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// Signed integer `<` (all integer widths compare on `i64` storage).
    ICmpLt {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// Integer `==`.
    ICmpEq {
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// An `FMul` whose single-use product feeds the *immediately following*
    /// `FAdd`, fused into one dispatch by [`fuse_fmul_fadd`]. The product
    /// and the sum keep their **separate IEEE roundings** — only the
    /// dispatch, the product's register write and its re-read are fused, so
    /// results stay bit-identical to the unfused pair. `product_on_lhs`
    /// records which side of the add the product sat on, preserving the
    /// add's operand order (NaN payload propagation) exactly.
    FMulAdd {
        dst: u32,
        a: Opnd,
        b: Opnd,
        c: Opnd,
        product_on_lhs: bool,
    },
}

/// Rewrites a generic `Binary`/`Cmp` into its specialised form when one
/// applies; everything else passes through unchanged.
fn specialise(op: DecodedOp) -> DecodedOp {
    match op {
        DecodedOp::Binary {
            op: BinOp::FAdd,
            dst,
            lhs,
            rhs,
            ..
        } => DecodedOp::FAdd { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::FSub,
            dst,
            lhs,
            rhs,
            ..
        } => DecodedOp::FSub { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::FMul,
            dst,
            lhs,
            rhs,
            ..
        } => DecodedOp::FMul { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::FDiv,
            dst,
            lhs,
            rhs,
            ..
        } => DecodedOp::FDiv { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::Add,
            ty: Type::I64,
            dst,
            lhs,
            rhs,
        } => DecodedOp::IAdd64 { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::Sub,
            ty: Type::I64,
            dst,
            lhs,
            rhs,
        } => DecodedOp::ISub64 { dst, lhs, rhs },
        DecodedOp::Binary {
            op: BinOp::And,
            ty: Type::I64,
            dst,
            lhs,
            rhs,
        } => DecodedOp::IAnd64 { dst, lhs, rhs },
        DecodedOp::Cmp {
            pred: CmpPred::Lt,
            ty,
            dst,
            lhs,
            rhs,
        } if !ty.is_float() => DecodedOp::ICmpLt { dst, lhs, rhs },
        DecodedOp::Cmp {
            pred: CmpPred::Eq,
            ty,
            dst,
            lhs,
            rhs,
        } if !ty.is_float() => DecodedOp::ICmpEq { dst, lhs, rhs },
        other => other,
    }
}

/// Dynamic dispatch mix of the *generic* decoded ops: every
/// [`Instr::Binary`] / [`Instr::Cmp`] that decode-time specialisation
/// leaves on the generic `(op, ty)` dispatch path, weighted by how often
/// its block executed in `exec`. Returns `(label, dynamic_count)` pairs
/// sorted by descending count — the specialization shortlist for future
/// fast-path decoded-op variants.
pub fn generic_dispatch_mix(
    module: &Module,
    exec: &crate::interp::ExecProfile,
) -> Vec<(String, u64)> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (fi, func) in module.functions.iter().enumerate() {
        let Some(bc) = exec.block_counts.get(fi) else {
            continue;
        };
        for b in func.block_ids() {
            let weight = bc.get(b.index()).copied().unwrap_or(0);
            if weight == 0 {
                continue;
            }
            for &iid in &func.block(b).instrs {
                // Re-run the real specialiser on a dummy decoding so the
                // shortlist can never drift from the dispatcher's rules.
                let probe = match *func.instr(iid) {
                    Instr::Binary { op, ty, .. } => DecodedOp::Binary {
                        op,
                        ty,
                        dst: 0,
                        lhs: Opnd::Reg(0),
                        rhs: Opnd::Reg(0),
                    },
                    Instr::Cmp { pred, ty, .. } => DecodedOp::Cmp {
                        pred,
                        ty,
                        dst: 0,
                        lhs: Opnd::Reg(0),
                        rhs: Opnd::Reg(0),
                    },
                    _ => continue,
                };
                let label = match specialise(probe) {
                    DecodedOp::Binary { op, ty, .. } => {
                        format!("{} {ty}", op.mnemonic())
                    }
                    DecodedOp::Cmp { pred, ty, .. } => {
                        format!("cmp {} {ty}", pred.mnemonic())
                    }
                    _ => continue, // has a fast path already
                };
                *counts.entry(label).or_insert(0) += weight;
            }
        }
    }
    let mut mix: Vec<(String, u64)> = counts.into_iter().collect();
    mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    mix
}

/// Fuses an [`DecodedOp::FMul`] directly followed by an [`DecodedOp::FAdd`]
/// that consumes its result as that result's only static use into one
/// [`DecodedOp::FMulAdd`].
///
/// Only *adjacent* pairs fuse: with no ops between the multiply and the
/// add, deferring the product's register write cannot reorder it past any
/// other effect or error, so operand evaluation order — and with it every
/// type-confusion error and both roundings — is exactly the unfused
/// sequence's. The single-use requirement (checked against whole-function
/// static use counts, phi incomings and terminators included) makes the
/// elided product register unobservable; `t + t` shapes keep both reads and
/// are left unfused, as is anything writing to the trash slot (its index is
/// past `use_count` and never qualifies).
fn fuse_fmul_fadd(ops: Vec<DecodedOp>, use_count: &[u32]) -> Vec<DecodedOp> {
    let mut out: Vec<DecodedOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if let DecodedOp::FAdd { dst, lhs, rhs } = op {
            if let Some(&DecodedOp::FMul {
                dst: t,
                lhs: a,
                rhs: b,
            }) = out.last()
            {
                let lhs_is_t = matches!(lhs, Opnd::Reg(r) if r == t);
                let rhs_is_t = matches!(rhs, Opnd::Reg(r) if r == t);
                if (lhs_is_t != rhs_is_t)
                    && (t as usize) < use_count.len()
                    && use_count[t as usize] == 1
                {
                    out.pop();
                    out.push(DecodedOp::FMulAdd {
                        dst,
                        a,
                        b,
                        c: if lhs_is_t { rhs } else { lhs },
                        product_on_lhs: lhs_is_t,
                    });
                    continue;
                }
            }
            out.push(DecodedOp::FAdd { dst, lhs, rhs });
        } else {
            out.push(op);
        }
    }
    out
}

/// A decoded terminator with direct block and edge-table indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecodedTerm {
    Br {
        target: u32,
        edge: u32,
    },
    CondBr {
        cond: Opnd,
        then_target: u32,
        then_edge: u32,
        else_target: u32,
        else_edge: u32,
    },
    Ret(Option<Opnd>),
}

/// The compiled phi moves for one CFG edge, applied when the edge is taken.
#[derive(Debug, Clone)]
pub(crate) struct EdgeMoves {
    moves: Box<[(u32, Opnd)]>,
    /// Whether any move reads a register another move writes — if so the
    /// moves must be applied as a parallel assignment (via scratch).
    parallel: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct DecodedBlock {
    ops: Box<[DecodedOp]>,
    term: DecodedTerm,
}

#[derive(Debug, Clone)]
pub(crate) struct DecodedFunc {
    params: usize,
    /// Register-file size: one slot per SSA value plus the trash slot.
    regs: usize,
    blocks: Vec<DecodedBlock>,
    edges: Vec<EdgeMoves>,
}

/// A fully decoded module. Functions index-align with
/// [`Module::functions`].
#[derive(Debug)]
pub(crate) struct DecodedModule {
    funcs: Vec<DecodedFunc>,
}

impl DecodedModule {
    /// Reassembles a decoded module from per-function decodings that were
    /// cached across edits (see [`crate::interp::DecodedFunction`]). The
    /// caller guarantees index alignment with the module the parts were
    /// decoded against.
    pub(crate) fn from_funcs(funcs: Vec<DecodedFunc>) -> DecodedModule {
        DecodedModule { funcs }
    }
}

/// Decodes a whole module, or `None` if any function has an irregularity
/// the init check cannot prove safe (the caller then uses the walker).
pub(crate) fn decode(module: &Module) -> Option<DecodedModule> {
    let mut funcs = Vec::with_capacity(module.functions.len());
    for func in &module.functions {
        funcs.push(decode_func(module, func)?);
    }
    Some(DecodedModule { funcs })
}

/// Resolves a non-phi operand use in block `b`, enforcing the init check:
/// the definition must dominate `b`, or precede the use within `b`.
fn use_opnd(
    func: &Function,
    dom: &DomTree,
    def_block: &[Option<BlockId>],
    defined_here: &[bool],
    b: BlockId,
    op: Operand,
) -> Option<Opnd> {
    match op {
        Operand::Const(imm) => Some(Opnd::Imm(imm_value(imm))),
        Operand::Value(v) => {
            if v.index() >= func.values.len() {
                return None;
            }
            let d = def_block[v.index()]?;
            if d == b {
                if !defined_here[v.index()] {
                    return None;
                }
            } else if !dom.dominates(d, b) {
                return None;
            }
            Some(Opnd::Reg(v.0))
        }
    }
}

pub(crate) fn decode_func(module: &Module, func: &Function) -> Option<DecodedFunc> {
    let nblocks = func.blocks.len();
    let nvalues = func.values.len();
    let trash = nvalues as u32;
    let entry = func.entry();

    // Terminator presence, target ranges and ret/signature conformance must
    // hold before Cfg::compute (which panics on their absence).
    for b in func.block_ids() {
        let term = func.block(b).term.as_ref()?;
        match term {
            Terminator::Br(t) => {
                if t.index() >= nblocks {
                    return None;
                }
            }
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                if then_bb.index() >= nblocks || else_bb.index() >= nblocks {
                    return None;
                }
            }
            Terminator::Ret(v) => {
                if matches!((v, func.ret), (Some(_), None) | (None, Some(_))) {
                    return None;
                }
            }
        }
    }

    let cfg = Cfg::compute(func);
    let dom = DomTree::dominators(func, &cfg);

    // Whole-function static use counts per value (operands, phi incomings
    // and terminators all included), for the fmul→fadd fusion below: a
    // product consumed exactly once may have its register write elided.
    let mut use_count = vec![0u32; nvalues];
    {
        let mut count = |op: Operand| {
            if let Operand::Value(v) = op {
                if v.index() < nvalues {
                    use_count[v.index()] += 1;
                }
            }
        };
        for b in func.block_ids() {
            let blk = func.block(b);
            for &iid in &blk.instrs {
                if iid.index() < func.instrs.len() {
                    func.instr(iid).for_each_operand(&mut count);
                }
            }
            if let Some(term) = blk.term.as_ref() {
                term.for_each_operand(&mut count);
            }
        }
    }

    // Defining block per value; `None` for instruction results whose
    // instruction is in no block (such values are never assigned).
    let mut def_block: Vec<Option<BlockId>> = vec![None; nvalues];
    for (i, vd) in func.values.iter().enumerate() {
        if matches!(vd, ValueDef::Param(..)) {
            def_block[i] = Some(entry);
        }
    }
    let mut placed = vec![false; func.instrs.len()];
    for b in func.block_ids() {
        for &iid in &func.block(b).instrs {
            if iid.index() >= func.instrs.len() || placed[iid.index()] {
                return None;
            }
            placed[iid.index()] = true;
            if let Some(v) = func.result_of(iid) {
                if v.index() >= nvalues {
                    return None;
                }
                def_block[v.index()] = Some(b);
            }
        }
    }

    let mut block_ops: Vec<Vec<DecodedOp>> = Vec::with_capacity(nblocks);
    let mut edges: Vec<EdgeMoves> = Vec::new();
    let mut edge_map: HashMap<(u32, u32), u32> = HashMap::new();
    // Decoded CondBr condition / Ret operand per block (checked in block
    // context here, consumed by the terminator pass below).
    let mut term_opnd: Vec<Option<Opnd>> = vec![None; nblocks];

    for b in func.block_ids() {
        let blk = func.block(b);
        let mut defined_here = vec![false; nvalues];
        if b == entry {
            for slot in defined_here.iter_mut().take(func.params.len()) {
                *slot = true;
            }
        }

        // Phi prefix → per-predecessor edge tables.
        let mut phis: Vec<(u32, &[(BlockId, Operand)])> = Vec::new();
        let mut n_phi = 0;
        for &iid in &blk.instrs {
            let Instr::Phi { incomings, .. } = func.instr(iid) else {
                break;
            };
            if b == entry {
                return None;
            }
            let dst = func.result_of(iid)?;
            phis.push((dst.0, incomings));
            n_phi += 1;
        }
        if blk.instrs[n_phi..]
            .iter()
            .any(|&iid| matches!(func.instr(iid), Instr::Phi { .. }))
        {
            return None;
        }
        // Phi results are assigned in the block prologue, before any
        // non-phi op runs.
        for &(dst, _) in &phis {
            defined_here[dst as usize] = true;
        }

        let mut seen_pred = vec![false; nblocks];
        for &p in &cfg.preds[b.index()] {
            if seen_pred[p.index()] {
                continue;
            }
            seen_pred[p.index()] = true;
            let mut moves = Vec::with_capacity(phis.len());
            for &(dst, incomings) in &phis {
                // First matching incoming, like the walker's `find`.
                let (_, op) = incomings.iter().find(|(pb, _)| *pb == p)?;
                let src = match *op {
                    Operand::Const(imm) => Opnd::Imm(imm_value(imm)),
                    Operand::Value(v) => {
                        if v.index() >= nvalues {
                            return None;
                        }
                        let d = def_block[v.index()]?;
                        // The definition must dominate the incoming edge,
                        // i.e. the predecessor block.
                        if !dom.dominates(d, p) {
                            return None;
                        }
                        Opnd::Reg(v.0)
                    }
                };
                moves.push((dst, src));
            }
            let parallel = moves
                .iter()
                .any(|&(_, src)| matches!(src, Opnd::Reg(r) if moves.iter().any(|&(d, _)| d == r)));
            let idx = u32::try_from(edges.len()).ok()?;
            edges.push(EdgeMoves {
                moves: moves.into_boxed_slice(),
                parallel,
            });
            edge_map.insert((p.0, b.0), idx);
        }

        // Non-phi ops.
        let mut ops = Vec::with_capacity(blk.instrs.len() - n_phi);
        for &iid in &blk.instrs[n_phi..] {
            let instr = func.instr(iid);
            let dst = func.result_of(iid).map_or(trash, |v| v.0);
            let opnd = |op: Operand| use_opnd(func, &dom, &def_block, &defined_here, b, op);
            match instr {
                Instr::Binary { op, ty, lhs, rhs } => ops.push(specialise(DecodedOp::Binary {
                    op: *op,
                    ty: *ty,
                    dst,
                    lhs: opnd(*lhs)?,
                    rhs: opnd(*rhs)?,
                })),
                Instr::Unary { op, val, .. } => ops.push(DecodedOp::Unary {
                    op: *op,
                    dst,
                    val: opnd(*val)?,
                }),
                Instr::Cmp { pred, ty, lhs, rhs } => ops.push(specialise(DecodedOp::Cmp {
                    pred: *pred,
                    ty: *ty,
                    dst,
                    lhs: opnd(*lhs)?,
                    rhs: opnd(*rhs)?,
                })),
                Instr::Select {
                    cond,
                    then_val,
                    else_val,
                    ..
                } => ops.push(DecodedOp::Select {
                    dst,
                    cond: opnd(*cond)?,
                    then_val: opnd(*then_val)?,
                    else_val: opnd(*else_val)?,
                }),
                Instr::Gep { array, indices } => {
                    if array.index() >= module.arrays.len() {
                        return None;
                    }
                    let decl = module.array(*array);
                    // The walker tolerates *fewer* indices than dimensions
                    // (a partial row-major prefix) but panics on more.
                    if indices.len() > decl.dims.len() {
                        return None;
                    }
                    let strides = decl.strides();
                    let mut dims = Vec::with_capacity(indices.len());
                    for (k, idx) in indices.iter().enumerate() {
                        dims.push(GepDim {
                            idx: opnd(*idx)?,
                            stride: strides[k] as i64,
                            size: decl.dims[k],
                            dim: k as u32,
                        });
                    }
                    // Fold the trailing run of in-bounds constant integer
                    // indices into a precomputed offset. Constants that are
                    // negative, out of bounds, or of the wrong runtime type
                    // stay as dims so their error behavior is unchanged.
                    let mut base = 0i64;
                    while let Some(d) = dims.last() {
                        match d.idx {
                            Opnd::Imm(Value::I(i)) if i >= 0 && (i as usize) < d.size => {
                                base += i * d.stride;
                                dims.pop();
                            }
                            _ => break,
                        }
                    }
                    if base != 0 || dims.len() < indices.len() {
                        ops.push(DecodedOp::GepConst {
                            dst,
                            array: *array,
                            dims: dims.into_boxed_slice(),
                            base,
                        });
                    } else {
                        ops.push(DecodedOp::Gep {
                            dst,
                            array: *array,
                            dims: dims.into_boxed_slice(),
                        });
                    }
                }
                Instr::Load { ptr, .. } => ops.push(DecodedOp::Load {
                    dst,
                    ptr: opnd(*ptr)?,
                }),
                Instr::Store { ptr, value, .. } => ops.push(DecodedOp::Store {
                    ptr: opnd(*ptr)?,
                    value: opnd(*value)?,
                }),
                Instr::Phi { .. } => unreachable!("phi prefix handled above"),
                Instr::Call { callee, args, ty } => {
                    if callee.index() >= module.functions.len() {
                        return None;
                    }
                    // A void call with a recorded result would make the
                    // walker fail in two different ways depending on what
                    // the callee returns; leave that to the walker.
                    if ty.is_none() && func.result_of(iid).is_some() {
                        return None;
                    }
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(opnd(*a)?);
                    }
                    ops.push(DecodedOp::Call {
                        callee: *callee,
                        dst: ty.map(|_| dst),
                        args: argv.into_boxed_slice(),
                    });
                }
            }
            if let Some(v) = func.result_of(iid) {
                defined_here[v.index()] = true;
            }
        }
        block_ops.push(fuse_fmul_fadd(ops, &use_count));

        match blk.terminator() {
            Terminator::CondBr { cond, .. } => {
                term_opnd[b.index()] =
                    Some(use_opnd(func, &dom, &def_block, &defined_here, b, *cond)?);
            }
            Terminator::Ret(Some(op)) => {
                term_opnd[b.index()] =
                    Some(use_opnd(func, &dom, &def_block, &defined_here, b, *op)?);
            }
            _ => {}
        }
    }

    // Terminators last: edge tables for forward branches now exist.
    let edge_of = |from: BlockId, to: BlockId| -> u32 {
        edge_map.get(&(from.0, to.0)).copied().unwrap_or(NO_EDGE)
    };
    let mut blocks = Vec::with_capacity(nblocks);
    for (b, ops) in func.block_ids().zip(block_ops) {
        let term = match func.block(b).terminator() {
            Terminator::Br(t) => DecodedTerm::Br {
                target: t.0,
                edge: edge_of(b, *t),
            },
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => DecodedTerm::CondBr {
                cond: term_opnd[b.index()]?,
                then_target: then_bb.0,
                then_edge: edge_of(b, *then_bb),
                else_target: else_bb.0,
                else_edge: edge_of(b, *else_bb),
            },
            Terminator::Ret(v) => DecodedTerm::Ret(match v {
                Some(_) => Some(term_opnd[b.index()]?),
                None => None,
            }),
        };
        blocks.push(DecodedBlock {
            ops: ops.into_boxed_slice(),
            term,
        });
    }

    Some(DecodedFunc {
        params: func.params.len(),
        regs: nvalues + 1,
        blocks,
        edges,
    })
}

/// Execution context for the decoded engine: borrows the interpreter's
/// memory and counters so [`crate::interp::Interp::run`] semantics (shared
/// step budget, per-function counts) carry over exactly.
pub(crate) struct ExecCtx<'a, 'm> {
    pub(crate) module: &'m Module,
    pub(crate) dm: &'a DecodedModule,
    pub(crate) memory: &'a mut Memory,
    pub(crate) counts: &'a mut Vec<Vec<u64>>,
    pub(crate) steps: &'a mut u64,
    pub(crate) step_limit: u64,
    /// Reusable buffer for parallel phi-move application.
    pub(crate) scratch: Vec<Value>,
}

impl ExecCtx<'_, '_> {
    pub(crate) fn call(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, InterpError> {
        let fx = f.index();
        let dm = self.dm;
        let df = &dm.funcs[fx];
        if args.len() != df.params {
            let func = self.module.function(f);
            return Err(InterpError::new(format!(
                "function `{}` expects {} args, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut regs = vec![Value::I(0); df.regs];
        regs[..args.len()].copy_from_slice(args);

        let mut block = 0usize;
        loop {
            *self.steps += 1;
            if *self.steps > self.step_limit {
                return Err(InterpError::new("step limit exceeded"));
            }
            self.counts[fx][block] += 1;
            let blk = &df.blocks[block];
            for op in blk.ops.iter() {
                self.exec_op(&mut regs, op)?;
            }
            match blk.term {
                DecodedTerm::Br { target, edge } => {
                    self.apply_edge(&mut regs, df, edge);
                    block = target as usize;
                }
                DecodedTerm::CondBr {
                    cond,
                    then_target,
                    then_edge,
                    else_target,
                    else_edge,
                } => {
                    let (target, edge) = if ev(&regs, cond).as_b()? {
                        (then_target, then_edge)
                    } else {
                        (else_target, else_edge)
                    };
                    self.apply_edge(&mut regs, df, edge);
                    block = target as usize;
                }
                DecodedTerm::Ret(v) => return Ok(v.map(|o| ev(&regs, o))),
            }
        }
    }

    #[inline]
    fn apply_edge(&mut self, regs: &mut [Value], df: &DecodedFunc, edge: u32) {
        if edge == NO_EDGE {
            return;
        }
        let em = &df.edges[edge as usize];
        if em.parallel {
            // Parallel assignment: read every source against the old
            // register state before writing any destination.
            self.scratch.clear();
            for &(_, src) in em.moves.iter() {
                self.scratch.push(ev(regs, src));
            }
            for (i, &(dst, _)) in em.moves.iter().enumerate() {
                regs[dst as usize] = self.scratch[i];
            }
        } else {
            for &(dst, src) in em.moves.iter() {
                regs[dst as usize] = ev(regs, src);
            }
        }
    }

    fn exec_op(&mut self, regs: &mut [Value], op: &DecodedOp) -> Result<(), InterpError> {
        match *op {
            DecodedOp::Binary {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let l = ev(regs, lhs);
                let r = ev(regs, rhs);
                regs[dst as usize] = exec_binary(op, ty, l, r)?;
            }
            DecodedOp::Unary { op, dst, val } => {
                regs[dst as usize] = exec_unary(op, ev(regs, val))?;
            }
            DecodedOp::Cmp {
                pred,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let l = ev(regs, lhs);
                let r = ev(regs, rhs);
                regs[dst as usize] = Value::B(exec_cmp(pred, ty, l, r)?);
            }
            DecodedOp::Select {
                dst,
                cond,
                then_val,
                else_val,
            } => {
                regs[dst as usize] = if ev(regs, cond).as_b()? {
                    ev(regs, then_val)
                } else {
                    ev(regs, else_val)
                };
            }
            DecodedOp::Gep {
                dst,
                array,
                ref dims,
            } => {
                let mut flat: i64 = 0;
                for d in dims.iter() {
                    let i = ev(regs, d.idx).as_i()?;
                    if i < 0 || i as usize >= d.size {
                        return Err(InterpError::new(format!(
                            "index {i} out of bounds for dim {} (size {}) of `{}`",
                            d.dim,
                            d.size,
                            self.module.array(array).name
                        )));
                    }
                    flat += i * d.stride;
                }
                let a = self.memory.addr(array, flat as usize)?;
                regs[dst as usize] = Value::P(a);
            }
            DecodedOp::GepConst {
                dst,
                array,
                ref dims,
                base,
            } => {
                let mut flat: i64 = base;
                for d in dims.iter() {
                    let i = ev(regs, d.idx).as_i()?;
                    if i < 0 || i as usize >= d.size {
                        return Err(InterpError::new(format!(
                            "index {i} out of bounds for dim {} (size {}) of `{}`",
                            d.dim,
                            d.size,
                            self.module.array(array).name
                        )));
                    }
                    flat += i * d.stride;
                }
                let a = self.memory.addr(array, flat as usize)?;
                regs[dst as usize] = Value::P(a);
            }
            DecodedOp::Load { dst, ptr } => {
                let p = ev(regs, ptr).as_p()?;
                regs[dst as usize] = self.memory.cells[p];
            }
            DecodedOp::Store { ptr, value } => {
                let p = ev(regs, ptr).as_p()?;
                self.memory.cells[p] = ev(regs, value);
            }
            DecodedOp::Call {
                callee,
                dst,
                ref args,
            } => {
                let mut argv = Vec::with_capacity(args.len());
                for &a in args.iter() {
                    argv.push(ev(regs, a));
                }
                let r = self.call(callee, &argv)?;
                match (r, dst) {
                    (Some(v), Some(d)) => regs[d as usize] = v,
                    (None, None) => {}
                    _ => return Err(InterpError::new("call result arity mismatch")),
                }
            }
            DecodedOp::FAdd { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_f()?, ev(regs, rhs).as_f()?);
                regs[dst as usize] = Value::F(a + b);
            }
            DecodedOp::FSub { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_f()?, ev(regs, rhs).as_f()?);
                regs[dst as usize] = Value::F(a - b);
            }
            DecodedOp::FMul { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_f()?, ev(regs, rhs).as_f()?);
                regs[dst as usize] = Value::F(a * b);
            }
            DecodedOp::FDiv { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_f()?, ev(regs, rhs).as_f()?);
                regs[dst as usize] = Value::F(a / b);
            }
            DecodedOp::IAdd64 { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_i()?, ev(regs, rhs).as_i()?);
                regs[dst as usize] = Value::I(a.wrapping_add(b));
            }
            DecodedOp::ISub64 { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_i()?, ev(regs, rhs).as_i()?);
                regs[dst as usize] = Value::I(a.wrapping_sub(b));
            }
            DecodedOp::IAnd64 { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_i()?, ev(regs, rhs).as_i()?);
                regs[dst as usize] = Value::I(a & b);
            }
            DecodedOp::ICmpLt { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_i()?, ev(regs, rhs).as_i()?);
                regs[dst as usize] = Value::B(a < b);
            }
            DecodedOp::ICmpEq { dst, lhs, rhs } => {
                let (a, b) = (ev(regs, lhs).as_i()?, ev(regs, rhs).as_i()?);
                regs[dst as usize] = Value::B(a == b);
            }
            DecodedOp::FMulAdd {
                dst,
                a,
                b,
                c,
                product_on_lhs,
            } => {
                // Product operands first, then the addend — the unfused
                // pair's evaluation (and error) order. Two roundings: the
                // product is rounded before the add, not contracted. The add
                // keeps the original operand order too: it only matters when
                // both sides are NaN (payload selection follows the lhs).
                let (x, y) = (ev(regs, a).as_f()?, ev(regs, b).as_f()?);
                let p = x * y;
                let cv = ev(regs, c).as_f()?;
                #[allow(clippy::if_same_then_else)]
                let sum = if product_on_lhs { p + cv } else { cv + p };
                regs[dst as usize] = Value::F(sum);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::interp::Interp;

    #[test]
    fn generic_dispatch_mix_counts_only_unspecialised_ops() {
        // `add i64`, `sub i64`, `and i64` and `fadd` have fast paths;
        // `mul i64` and `cmp ge i64` stay generic. Each loop body runs 8
        // times.
        let mut mb = ModuleBuilder::new("mix");
        mb.function("main", &[], Some(Type::I64), |fb| {
            let zero = fb.iconst(0);
            let out = fb.counted_loop_carry(0, 8, 1, &[(Type::I64, zero)], |fb, i, c| {
                let a = fb.add(c[0], i); // specialised: IAdd64
                let s = fb.sub(a, fb.iconst(1)); // specialised: ISub64
                let b = fb.binary(BinOp::Mul, Type::I64, s, fb.iconst(3)); // generic
                let ge = fb.cmp(CmpPred::Ge, Type::I64, b, fb.iconst(3)); // generic
                vec![fb.select(ge, Type::I64, b, a)]
            });
            fb.ret(Some(out[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let exec = Interp::new(&m).run(&[]).expect("runs");
        let mix = generic_dispatch_mix(&m, &exec);
        assert_eq!(
            mix,
            vec![("cmp ge i64".to_string(), 8), ("mul i64".to_string(), 8)],
            "exactly the unspecialised ops, weighted by 8 iterations"
        );
    }

    #[test]
    fn isub64_iand64_fast_paths_match_reference() {
        // A loop whose body leans on `sub i64` and `and i64` — the two ops
        // the corpus dispatch mix flagged — plus wrapping edge cases. The
        // decoded engine must agree bit-for-bit with the tree walker.
        let mut mb = ModuleBuilder::new("suband");
        mb.function("main", &[], Some(Type::I64), |fb| {
            let init = fb.iconst(i64::MIN + 2);
            let out = fb.counted_loop_carry(0, 16, 1, &[(Type::I64, init)], |fb, i, c| {
                let d = fb.sub(c[0], i); // wraps past i64::MIN
                let m = fb.and(d, fb.iconst(0x0f0f_0f0f_0f0f_0f0f));
                let low = fb.and(i, fb.iconst(7));
                vec![fb.sub(m, low)]
            });
            fb.ret(Some(out[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let mut fast = Interp::new(&m);
        assert_eq!(fast.engine_name(), "decoded");
        let a = fast.run(&[]).expect("decoded runs");
        let b = Interp::reference(&m).run(&[]).expect("reference runs");
        assert_eq!(a.return_value, b.return_value);
        assert_eq!(a.block_counts, b.block_counts);
        assert_eq!(a.total_cycles, b.total_cycles);
        // And both ops really left the generic dispatch path.
        assert!(
            generic_dispatch_mix(&m, &a).is_empty(),
            "sub/and i64 must be specialised"
        );
    }

    #[test]
    fn verified_builder_modules_decode() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let f = fb.counted_loop_carry(0, 8, 1, &[(Type::F64, init)], |fb, i, c| {
                let v = fb.load_idx(x, &[i]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        assert!(decode(&m).is_some());
        assert_eq!(Interp::new(&m).engine_name(), "decoded");
        assert_eq!(Interp::reference(&m).engine_name(), "reference");
    }

    #[test]
    fn missing_terminator_falls_back() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| {
            fb.new_block("orphan");
            fb.ret(None);
        });
        let m = mb.finish();
        // Interp::new on such a module panics in the (engine-independent)
        // static-cycle pass, exactly as it did before the decoded engine;
        // decode itself must bow out first.
        assert!(decode(&m).is_none());
    }

    #[test]
    fn ret_signature_mismatch_falls_back() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| {
            let v = fb.iconst(3);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        assert!(decode(&m).is_none());
        assert_eq!(Interp::new(&m).engine_name(), "reference");
    }

    #[test]
    fn swapping_carries_use_parallel_moves() {
        // Two loop-carried values rotated each iteration: the edge moves
        // (a ← b, b ← a) conflict, exercising the scratch-buffered parallel
        // application path.
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[], Some(Type::I64), |fb| {
            let a0 = fb.iconst(1);
            let b0 = fb.iconst(2);
            let f =
                fb.counted_loop_carry(0, 5, 1, &[(Type::I64, a0), (Type::I64, b0)], |_, _, c| {
                    vec![c[1], c[0]]
                });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert!(dm.funcs[0].edges.iter().any(|e| e.parallel));
        let decoded = Interp::new(&m).run(&[]).expect("runs");
        let walked = Interp::reference(&m).run(&[]).expect("runs");
        // 5 swaps starting from (1, 2) → a = 2.
        assert_eq!(decoded.return_value, Some(Value::I(2)));
        assert_eq!(decoded.return_value, walked.return_value);
        assert_eq!(decoded.block_counts, walked.block_counts);
        assert_eq!(decoded.total_cycles, walked.total_cycles);
    }

    fn gep_const_ops(df: &DecodedFunc) -> Vec<(usize, i64)> {
        df.blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter_map(|op| match op {
                DecodedOp::GepConst { dims, base, .. } => Some((dims.len(), *base)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn gep_constant_trailing_index_specialises() {
        // A[i][3] over a 4×8 array: the trailing constant column folds into
        // a base offset of 3, leaving one variable (bounds-checked) dim.
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 8]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let col = fb.iconst(3);
            let f = fb.counted_loop_carry(0, 4, 1, &[(Type::F64, init)], |fb, i, c| {
                let v = fb.load_idx(a, &[i, col]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert_eq!(gep_const_ops(&dm.funcs[0]), vec![(1, 3)]);

        let mut di = Interp::new(&m);
        let mut wi = Interp::reference(&m);
        for k in 0..32 {
            di.memory.set_f64(a, k, k as f64);
            wi.memory.set_f64(a, k, k as f64);
        }
        let decoded = di.run(&[]).expect("runs");
        let walked = wi.run(&[]).expect("runs");
        // Σ A[i][3] for i in 0..4 = 3 + 11 + 19 + 27.
        assert_eq!(decoded.return_value, Some(Value::F(60.0)));
        assert_eq!(decoded.return_value, walked.return_value);
        assert_eq!(decoded.block_counts, walked.block_counts);
    }

    #[test]
    fn gep_all_constant_indices_fold_completely() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::I64, &[4, 8]);
        mb.function("main", &[], Some(Type::I64), |fb| {
            let r = fb.iconst(2);
            let c = fb.iconst(5);
            let v = fb.load_idx_ty(a, &[r, c], Type::I64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        // 2*8 + 5 = 21, no runtime dims left.
        assert_eq!(gep_const_ops(&dm.funcs[0]), vec![(0, 21)]);
        let mut interp = Interp::new(&m);
        for k in 0..32 {
            interp.memory.set_i64(a, k, k as i64 * 10);
        }
        let out = interp.run(&[]).expect("runs");
        assert_eq!(out.return_value, Some(Value::I(210)));
    }

    #[test]
    fn gep_out_of_bounds_constant_is_not_folded() {
        // A constant index past the dim extent must keep its runtime check
        // so the error (message and dim number) matches the walker exactly.
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 8]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let r = fb.iconst(1);
            let c = fb.iconst(8);
            let v = fb.load_idx(a, &[r, c]);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert!(gep_const_ops(&dm.funcs[0]).is_empty());
        let e1 = Interp::new(&m).run(&[]).expect_err("oob");
        let e2 = Interp::reference(&m).run(&[]).expect_err("oob");
        assert_eq!(e1, e2);
        assert!(
            e1.message
                .contains("index 8 out of bounds for dim 1 (size 8)"),
            "{e1}"
        );
    }

    #[test]
    fn gep_zero_constant_still_specialises() {
        // Folding a 0 index adds nothing to the base but still removes the
        // runtime check; the decoder must pick GepConst, not generic Gep.
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 8]);
        mb.function("main", &[Type::I64], Some(Type::F64), |fb| {
            let i = fb.param(0);
            let z = fb.iconst(0);
            let v = fb.load_idx(a, &[i, z]);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert_eq!(gep_const_ops(&dm.funcs[0]), vec![(1, 0)]);
        let mut interp = Interp::new(&m);
        for k in 0..32 {
            interp.memory.set_f64(a, k, k as f64);
        }
        let out = interp.run(&[Value::I(2)]).expect("runs");
        assert_eq!(out.return_value, Some(Value::F(16.0)));
    }

    #[test]
    fn gep_with_excess_indices_falls_back() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4]);
        mb.function("f", &[], None, |fb| {
            let i = fb.iconst(0);
            let _ = fb.gep(a, &[i, i]);
            fb.ret(None);
        });
        let m = mb.finish();
        assert!(decode(&m).is_none());
    }

    #[test]
    fn errors_match_walker_on_oob_and_div_zero() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[4]);
        mb.function("main", &[Type::I64], Some(Type::F64), |fb| {
            let i = fb.param(0);
            let v = fb.load_idx(x, &[i]);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let e1 = Interp::new(&m).run(&[Value::I(9)]).expect_err("oob");
        let e2 = Interp::reference(&m).run(&[Value::I(9)]).expect_err("oob");
        assert_eq!(e1, e2);
        assert!(e1.message.contains("out of bounds"), "{e1}");

        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
            let one = fb.iconst(1);
            let p = fb.param(0);
            let q = fb.binary(crate::instr::BinOp::Div, Type::I64, one, p);
            fb.ret(Some(q));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let e1 = Interp::new(&m).run(&[Value::I(0)]).expect_err("div0");
        let e2 = Interp::reference(&m).run(&[Value::I(0)]).expect_err("div0");
        assert_eq!(e1, e2);
        assert_eq!(e1.message, "integer division by zero");
    }

    #[test]
    fn step_limit_matches_walker() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[], None, |fb| {
            let spin = fb.new_block("spin");
            fb.br(spin);
            fb.switch_to(spin);
            fb.br(spin);
        });
        let m = mb.finish();
        let mut d = Interp::new(&m).with_step_limit(1000);
        assert_eq!(d.engine_name(), "decoded");
        let e1 = d.run(&[]).expect_err("limit");
        let e2 = Interp::reference(&m)
            .with_step_limit(1000)
            .run(&[])
            .expect_err("limit");
        assert_eq!(e1, e2);
        assert!(e1.message.contains("step limit"), "{e1}");
    }

    #[test]
    fn entry_arity_error_matches_walker() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
            let p = fb.param(0);
            fb.ret(Some(p));
        });
        let m = mb.finish();
        let e1 = Interp::new(&m).run(&[]).expect_err("arity");
        let e2 = Interp::reference(&m).run(&[]).expect_err("arity");
        assert_eq!(e1, e2);
        assert!(e1.message.contains("expects 1 args"), "{e1}");
    }

    fn fma_ops(df: &DecodedFunc) -> usize {
        df.blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|op| matches!(op, DecodedOp::FMulAdd { .. }))
            .count()
    }

    #[test]
    fn fmul_fadd_single_use_chain_fuses_and_matches_walker_bitwise() {
        // The canonical reduction shape: the loop-carried accumulator is
        // already in a register, so the fmul is immediately followed by the
        // fadd consuming its product — the pair must fuse and stay
        // bit-identical to the walker (separate roundings, no contraction).
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("a", Type::F64, &[16]);
        let b = mb.array("b", Type::F64, &[16]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let f = fb.counted_loop_carry(0, 16, 1, &[(Type::F64, init)], |fb, i, c| {
                let av = fb.load_idx(a, &[i]);
                let bv = fb.load_idx(b, &[i]);
                let p = fb.fmul(av, bv);
                vec![fb.fadd(c[0], p)]
            });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert_eq!(fma_ops(&dm.funcs[0]), 1, "fmul→fadd chain fused");

        let mut di = Interp::new(&m);
        let mut wi = Interp::reference(&m);
        for k in 0..16 {
            // Values whose products round: a contracted (single-rounding)
            // fma would diverge bitwise and fail the comparison below.
            let x = 1.0 / (k as f64 + 3.0);
            let y = (k as f64 + 0.25).sqrt();
            di.memory.set_f64(a, k, x);
            wi.memory.set_f64(a, k, x);
            di.memory.set_f64(b, k, y);
            wi.memory.set_f64(b, k, y);
        }
        let decoded = di.run(&[]).expect("runs");
        let walked = wi.run(&[]).expect("runs");
        let (Some(Value::F(dv)), Some(Value::F(wv))) = (decoded.return_value, walked.return_value)
        else {
            panic!("float returns expected");
        };
        assert_eq!(dv.to_bits(), wv.to_bits(), "{dv} vs {wv}");
        assert_eq!(decoded.block_counts, walked.block_counts);
        assert_eq!(decoded.total_cycles, walked.total_cycles);
    }

    #[test]
    fn fused_chain_handles_product_on_either_side() {
        // fadd(p, c) and fadd(c, p) both fuse; the preserved operand order
        // must keep results bit-identical to the walker in both shapes.
        for product_first in [true, false] {
            let mut mb = ModuleBuilder::new("t");
            mb.function("main", &[Type::F64, Type::F64], Some(Type::F64), |fb| {
                let x = fb.param(0);
                let y = fb.param(1);
                let p = fb.fmul(x, y);
                let s = if product_first {
                    fb.fadd(p, y)
                } else {
                    fb.fadd(y, p)
                };
                fb.ret(Some(s));
            });
            let m = mb.finish();
            m.verify().expect("verifies");
            let dm = decode(&m).expect("decodes");
            assert_eq!(fma_ops(&dm.funcs[0]), 1, "product_first={product_first}");
            let args = [Value::F(1.1e-3), Value::F(-7.3)];
            let decoded = Interp::new(&m).run(&args).expect("runs");
            let walked = Interp::reference(&m).run(&args).expect("runs");
            let (Some(Value::F(dv)), Some(Value::F(wv))) =
                (decoded.return_value, walked.return_value)
            else {
                panic!("float returns expected");
            };
            assert_eq!(dv.to_bits(), wv.to_bits());
        }
    }

    #[test]
    fn multi_use_product_does_not_fuse() {
        // p feeds the adjacent fadd *and* a later op: eliding its register
        // write would lose the second read, so the pair must stay unfused.
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::F64], Some(Type::F64), |fb| {
            let x = fb.param(0);
            let p = fb.fmul(x, x);
            let s = fb.fadd(p, x);
            let t = fb.fadd(s, p);
            fb.ret(Some(t));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert_eq!(fma_ops(&dm.funcs[0]), 0, "double-used product fused");
        let args = [Value::F(0.3)];
        let decoded = Interp::new(&m).run(&args).expect("runs");
        let walked = Interp::reference(&m).run(&args).expect("runs");
        assert_eq!(decoded.return_value, walked.return_value);
    }

    #[test]
    fn non_adjacent_fmul_fadd_does_not_fuse() {
        // A load sits between the multiply and the add (the in-memory
        // accumulation shape): deferring the multiply past it would reorder
        // errors, so only adjacent pairs fuse.
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("a", Type::F64, &[8]);
        let z = mb.array("z", Type::F64, &[8]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let av = fb.load_idx(a, &[i]);
                let p = fb.fmul(av, av);
                let zv = fb.load_idx(z, &[i]);
                let s = fb.fadd(zv, p);
                fb.store_idx(z, &[i], s);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let dm = decode(&m).expect("decodes");
        assert_eq!(fma_ops(&dm.funcs[0]), 0, "non-adjacent pair fused");
    }

    #[test]
    fn fused_chain_error_order_matches_walker() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[Type::F64, Type::F64], Some(Type::F64), |fb| {
            let x = fb.param(0);
            let y = fb.param(1);
            let p = fb.fmul(x, x);
            let s = fb.fadd(p, y);
            fb.ret(Some(s));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        assert_eq!(fma_ops(&decode(&m).expect("decodes").funcs[0]), 1);
        // Non-float addend: the fused op must report the add-side type error
        // after evaluating the product operands, exactly like the walker.
        let bad_addend = [Value::F(1.0), Value::I(7)];
        let e1 = Interp::new(&m).run(&bad_addend).expect_err("type");
        let e2 = Interp::reference(&m).run(&bad_addend).expect_err("type");
        assert_eq!(e1, e2);
        // Non-float product operand errors first even when the addend is
        // also non-float.
        let both_bad = [Value::I(1), Value::I(7)];
        let e1 = Interp::new(&m).run(&both_bad).expect_err("type");
        let e2 = Interp::reference(&m).run(&both_bad).expect_err("type");
        assert_eq!(e1, e2);
    }
}
