//! CVA6-like in-order CPU cycle model.
//!
//! The paper profiles applications natively on a CVA6 RISC-V tile (§IV-A,
//! ref \[32\]: ~1.7 GHz application-class in-order core). We substitute a
//! static per-instruction cycle model applied by the interpreter; what the
//! downstream selection algorithm needs is only the *relative* hotspot
//! structure and a consistent time base for Equation (1).

use crate::instr::{BinOp, Instr, Terminator, UnaryOp};

/// Modelled CPU clock frequency in Hz (CVA6-class).
pub const CPU_FREQ_HZ: f64 = 1.5e9;

/// Cycles charged for one dynamic execution of `instr` on the CPU.
///
/// Loads are charged an average cache-hit latency; stores post to a store
/// buffer; integer division and floating division/transcendentals are
/// iterative units.
pub fn instr_cycles(instr: &Instr) -> u64 {
    match instr {
        Instr::Binary { op, .. } => match op {
            BinOp::Add
            | BinOp::Sub
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Shl
            | BinOp::Shr
            | BinOp::Min
            | BinOp::Max => 1,
            BinOp::Mul => 4,
            BinOp::Div | BinOp::Rem => 20,
            // CVA6's FPU is not pipelined: back-to-back FP issue stalls.
            BinOp::FAdd | BinOp::FSub | BinOp::FMin | BinOp::FMax => 5,
            BinOp::FMul => 6,
            BinOp::FDiv => 24,
        },
        Instr::Unary { op, .. } => match op {
            UnaryOp::Neg | UnaryOp::Not | UnaryOp::FNeg | UnaryOp::FAbs => 1,
            UnaryOp::Sqrt => 20,
            UnaryOp::Exp | UnaryOp::Log => 40,
            UnaryOp::SiToFp | UnaryOp::FpToSi => 2,
        },
        Instr::Cmp { .. } => 1,
        Instr::Select { .. } => 1,
        // Address computation folds into the addressing mode most of the
        // time; charge one ALU cycle.
        Instr::Gep { .. } => 1,
        // Average over L1 hits and misses on the small CVA6 data cache.
        Instr::Load { .. } => 4,
        Instr::Store { .. } => 2,
        // Phis are resolved by register allocation; free at runtime.
        Instr::Phi { .. } => 0,
        // Call/return bookkeeping (the callee's body is charged separately).
        Instr::Call { .. } => 8,
    }
}

/// Cycles charged for one dynamic execution of a block terminator.
pub fn terminator_cycles(term: &Terminator) -> u64 {
    match term {
        Terminator::Br(_) => 1,
        // Average of taken/mispredicted conditional branch (in-order
        // front-end refill).
        Terminator::CondBr { .. } => 3,
        Terminator::Ret(_) => 3,
    }
}

/// Static CPU cycles for one execution of a block (instructions plus
/// terminator).
pub fn block_cycles(func: &crate::module::Function, b: crate::module::BlockId) -> u64 {
    let blk = func.block(b);
    let body: u64 = blk
        .instrs
        .iter()
        .map(|&i| instr_cycles(func.instr(i)))
        .sum();
    body + terminator_cycles(blk.terminator())
}

/// Total CPU cycles of a run of `module` that executed each block
/// `block_counts[f][b]` times: Σ count × [`block_cycles`]. The one cycle
/// formula, shared by the interpreter and by profiles derived without a run.
pub fn total_cycles(module: &crate::module::Module, block_counts: &[Vec<u64>]) -> u64 {
    let mut total = 0u64;
    for (func, per_block) in module.functions.iter().zip(block_counts) {
        for (b, &count) in func.block_ids().zip(per_block) {
            total += count * block_cycles(func, b);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::module::FuncId;
    use crate::types::Type;

    #[test]
    fn fp_ops_cost_more_than_int() {
        use crate::instr::Operand;
        let fadd = Instr::Binary {
            op: BinOp::FAdd,
            ty: Type::F64,
            lhs: Operand::float(1.0),
            rhs: Operand::float(2.0),
        };
        let add = Instr::Binary {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: Operand::int(1),
            rhs: Operand::int(2),
        };
        assert!(instr_cycles(&fadd) > instr_cycles(&add));
    }

    #[test]
    fn block_cycles_sums_body_and_terminator() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], Some(Type::I64), |fb| {
            let a = fb.add(Operand::int(1), Operand::int(2));
            let b = fb.mul(a, Operand::int(3));
            fb.ret(Some(b));
        });
        use crate::instr::Operand;
        let m = mb.finish();
        let f = m.function(FuncId(0));
        // add(1) + mul(4) + ret(3) = 8
        assert_eq!(block_cycles(f, f.entry()), 8);
    }
}
