//! IR interpreter with profiling counters — the reproduction's substitute for
//! the paper's instrumentation-pass-plus-native-execution profiling flow.
//!
//! Executing a module yields an [`ExecProfile`]: per-block dynamic execution
//! counts and a total CPU cycle count under the [`crate::cpu_model`]. The
//! analysis crate aggregates these into per-region durations and execution
//! counts (Fig. 2d ①).
//!
//! Two execution engines share the [`Interp::run`] API and semantics:
//!
//! * the **decoded engine** ([`crate::decode_function`], the default) — each function
//!   is lowered once into flat opcode streams with operand slots resolved to
//!   register indices, phi moves compiled into per-predecessor edge tables
//!   and terminators decoded to direct block indices, then executed over a
//!   flat register file;
//! * the **reference walker** ([`Interp::reference`]) — the original
//!   tree-walking evaluator, kept for differential testing and as the
//!   fallback for modules the decoder's verifier-backed init check rejects.

use crate::cpu_model::{block_cycles, CPU_FREQ_HZ};
use crate::instr::{BinOp, CmpPred, Imm, Instr, Operand, Terminator, UnaryOp};
use crate::module::{ArrayId, BlockId, FuncId, Function, Module, ValueDef, ValueId};
use crate::types::Type;
use cayman_obs::Counter;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// A dynamic value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (all integer widths share `i64` storage).
    I(i64),
    /// Float (both widths share `f64` storage).
    F(f64),
    /// Boolean.
    B(bool),
    /// Pointer: a flat element index into [`Memory`].
    P(usize),
}

impl Value {
    pub(crate) fn as_i(self) -> Result<i64, InterpError> {
        match self {
            Value::I(v) => Ok(v),
            other => Err(InterpError::new(format!("expected int, got {other:?}"))),
        }
    }
    pub(crate) fn as_f(self) -> Result<f64, InterpError> {
        match self {
            Value::F(v) => Ok(v),
            other => Err(InterpError::new(format!("expected float, got {other:?}"))),
        }
    }
    pub(crate) fn as_b(self) -> Result<bool, InterpError> {
        match self {
            Value::B(v) => Ok(v),
            other => Err(InterpError::new(format!("expected bool, got {other:?}"))),
        }
    }
    pub(crate) fn as_p(self) -> Result<usize, InterpError> {
        match self {
            Value::P(v) => Ok(v),
            other => Err(InterpError::new(format!("expected ptr, got {other:?}"))),
        }
    }
}

/// Interpreter failure (out-of-bounds access, step-limit exhaustion, type
/// confusion — the latter indicates an unverified module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Human-readable description.
    pub message: String,
}

impl InterpError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        InterpError {
            message: message.into(),
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl Error for InterpError {}

/// Flat, element-addressed memory backing all declared arrays.
#[derive(Debug, Clone)]
pub struct Memory {
    pub(crate) cells: Vec<Value>,
    base: Vec<usize>,
    len: Vec<usize>,
}

impl Memory {
    /// Allocates zero-initialised storage for every array in `module`.
    pub fn for_module(module: &Module) -> Self {
        let mut base = Vec::with_capacity(module.arrays.len());
        let mut len = Vec::with_capacity(module.arrays.len());
        let mut total = 0usize;
        for a in &module.arrays {
            base.push(total);
            len.push(a.len());
            total += a.len();
        }
        let mut cells = Vec::with_capacity(total);
        for a in &module.arrays {
            let zero = if a.elem.is_float() {
                Value::F(0.0)
            } else {
                Value::I(0)
            };
            cells.extend(std::iter::repeat_n(zero, a.len()));
        }
        Memory { cells, base, len }
    }

    pub(crate) fn addr(&self, array: ArrayId, flat: usize) -> Result<usize, InterpError> {
        if flat >= self.len[array.index()] {
            return Err(InterpError::new(format!(
                "out-of-bounds access: {array} index {flat} >= {}",
                self.len[array.index()]
            )));
        }
        Ok(self.base[array.index()] + flat)
    }

    /// Writes an `f64` element (row-major flat index).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (host-side setup error).
    pub fn set_f64(&mut self, array: ArrayId, flat: usize, v: f64) {
        let a = self.addr(array, flat).expect("host write out of bounds");
        self.cells[a] = Value::F(v);
    }

    /// Reads an `f64` element (row-major flat index).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or the cell holds an integer.
    pub fn get_f64(&self, array: ArrayId, flat: usize) -> f64 {
        let a = self.addr(array, flat).expect("host read out of bounds");
        match self.cells[a] {
            Value::F(v) => v,
            other => panic!("expected f64 cell, got {other:?}"),
        }
    }

    /// Writes an integer element (row-major flat index).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set_i64(&mut self, array: ArrayId, flat: usize, v: i64) {
        let a = self.addr(array, flat).expect("host write out of bounds");
        self.cells[a] = Value::I(v);
    }

    /// Reads an integer element (row-major flat index).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or the cell holds a float.
    pub fn get_i64(&self, array: ArrayId, flat: usize) -> i64 {
        let a = self.addr(array, flat).expect("host read out of bounds");
        match self.cells[a] {
            Value::I(v) => v,
            other => panic!("expected i64 cell, got {other:?}"),
        }
    }

    /// The raw memory image: every array's elements, concatenated in
    /// declaration order. Two runs over modules with identical array
    /// declarations are bit-comparable cell by cell (differential tests).
    pub fn cells(&self) -> &[Value] {
        &self.cells
    }
}

/// Profiling outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecProfile {
    /// `block_counts[f][b]` = dynamic executions of block `b` of function `f`.
    pub block_counts: Vec<Vec<u64>>,
    /// Total CPU cycles under the [`crate::cpu_model`].
    pub total_cycles: u64,
    /// The entry function's return value, if any.
    pub return_value: Option<Value>,
}

impl ExecProfile {
    /// Total wall-clock seconds on the modelled CPU (`T_all` in Eq. (1)).
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 / CPU_FREQ_HZ
    }

    /// Dynamic execution count of one block.
    pub fn count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_counts[f.index()][b.index()]
    }

    /// Total dynamic block executions across all functions (the interpreter's
    /// unit of profiling work — what the `profiling` bench reports per
    /// second).
    pub fn blocks_executed(&self) -> u64 {
        self.block_counts
            .iter()
            .map(|per_block| per_block.iter().sum::<u64>())
            .sum()
    }

    /// Total dynamic instructions executed (block counts weighted by each
    /// block's static instruction count, terminator included). The headline
    /// metric for normalization: fewer dynamic instructions for the same
    /// observable results.
    pub fn dynamic_instrs(&self, module: &Module) -> u64 {
        let mut total = 0u64;
        for (f, per_block) in self.block_counts.iter().enumerate() {
            let func = &module.functions[f];
            for (b, &count) in per_block.iter().enumerate() {
                let static_len = func.blocks[b].instrs.len() as u64 + 1;
                total += count * static_len;
            }
        }
        total
    }
}

/// One function's pre-decoded opcode streams, detached from the whole-module
/// decoding so incremental pipelines can cache decodings per *function
/// content* and reassemble an interpreter after an edit without re-running
/// the decoder's init check (CFG + dominance walks) on untouched functions.
///
/// Obtain one with [`decode_function`]; hand a full, index-aligned set back
/// to [`Interp::from_cached_decode`]. A handle is only meaningful for a
/// function structurally identical to the one it was decoded from — key it
/// by [`crate::fingerprint::fingerprint_function`].
#[derive(Debug, Clone)]
pub struct DecodedFunction(pub(crate) crate::decode::DecodedFunc);

/// Decodes a single function for caching, or `None` if it fails the
/// decoder's init check (such a function forces the whole module onto the
/// reference walker, exactly as in [`Interp::new`]).
pub fn decode_function(module: &Module, func: FuncId) -> Option<DecodedFunction> {
    crate::decode::decode_func(module, module.function(func)).map(DecodedFunction)
}

/// Which execution engine an [`Interp`] uses.
#[derive(Debug)]
enum Engine {
    /// Pre-decoded flat opcode streams (see [`crate::decode`]).
    Decoded(crate::decode::DecodedModule),
    /// The original tree-walking evaluator.
    Reference,
}

/// The reference engine, for a module the decoder rejected. Library code
/// never prints: the silent fallback is counted (`profile.decode_fallbacks`)
/// and becomes a structured diagnostic in the trace instead.
fn decode_fallback() -> Engine {
    static FALLBACKS: OnceLock<&Counter> = OnceLock::new();
    FALLBACKS
        .get_or_init(|| cayman_obs::registry::counter("profile.decode_fallbacks"))
        .add(1);
    cayman_obs::diag("interp.fallback", || {
        "decoder rejected module; using reference walker".to_string()
    });
    Engine::Reference
}

/// The interpreter. Holds the module, memory and counters.
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    /// Memory image (inputs written by the host before [`Interp::run`],
    /// outputs readable after).
    pub memory: Memory,
    counts: Vec<Vec<u64>>,
    steps: u64,
    step_limit: u64,
    /// Pre-computed static cycles per block.
    static_cycles: Vec<Vec<u64>>,
    engine: Engine,
}

impl<'m> Interp<'m> {
    /// Default dynamic step limit (blocks executed) guarding against
    /// non-terminating inputs.
    pub const DEFAULT_STEP_LIMIT: u64 = 200_000_000;

    /// Creates an interpreter with zeroed memory, using the decoded engine.
    ///
    /// Modules that fail the decoder's one-time init check (e.g. unverified
    /// modules with structural irregularities) silently fall back to the
    /// reference walker, so `run` semantics — including errors and panics —
    /// are identical either way.
    pub fn new(module: &'m Module) -> Self {
        let engine = match crate::decode::decode(module) {
            Some(dm) => Engine::Decoded(dm),
            None => decode_fallback(),
        };
        Self::with_engine(module, engine)
    }

    /// Creates an interpreter from per-function decodings cached across
    /// edits. `funcs` must index-align with [`Module::functions`]; pass
    /// `None` for any function whose decoding failed — that forces the
    /// whole module onto the reference walker with the same fallback
    /// diagnostics as [`Interp::new`], keeping `run` semantics identical.
    pub fn from_cached_decode(module: &'m Module, funcs: Vec<Option<DecodedFunction>>) -> Self {
        debug_assert_eq!(funcs.len(), module.functions.len());
        let all: Option<Vec<crate::decode::DecodedFunc>> =
            funcs.into_iter().map(|f| f.map(|d| d.0)).collect();
        let engine = match all {
            Some(fs) if fs.len() == module.functions.len() => {
                Engine::Decoded(crate::decode::DecodedModule::from_funcs(fs))
            }
            _ => decode_fallback(),
        };
        Self::with_engine(module, engine)
    }

    /// Creates an interpreter that uses the original tree-walking evaluator.
    ///
    /// Kept for differential testing against the decoded engine; both must
    /// produce bit-identical [`ExecProfile`]s and errors.
    pub fn reference(module: &'m Module) -> Self {
        Self::with_engine(module, Engine::Reference)
    }

    fn with_engine(module: &'m Module, engine: Engine) -> Self {
        let counts = module
            .functions
            .iter()
            .map(|f| vec![0u64; f.blocks.len()])
            .collect();
        let static_cycles = module
            .functions
            .iter()
            .map(|f| f.block_ids().map(|b| block_cycles(f, b)).collect())
            .collect();
        Interp {
            module,
            memory: Memory::for_module(module),
            counts,
            steps: 0,
            step_limit: Self::DEFAULT_STEP_LIMIT,
            static_cycles,
            engine,
        }
    }

    /// Overrides the dynamic step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Which engine this interpreter executes with: `"decoded"` or
    /// `"reference"`.
    pub fn engine_name(&self) -> &'static str {
        match self.engine {
            Engine::Decoded(_) => "decoded",
            Engine::Reference => "reference",
        }
    }

    /// Runs the module entry function (`main`, or the first function) with
    /// the given arguments and returns the profile.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds memory access, division by zero being fed to
    /// integer division, step-limit exhaustion, or dynamic type confusion
    /// (the latter indicates the module was not [verified](Module::verify)).
    pub fn run(&mut self, args: &[Value]) -> Result<ExecProfile, InterpError> {
        let span = cayman_obs::timed_with("profile.interp", || {
            vec![("engine", cayman_obs::ArgValue::from(self.engine_name()))]
        });
        let result = self.run_inner(args);
        span.finish();
        if let Ok(profile) = &result {
            static BLOCKS: OnceLock<&Counter> = OnceLock::new();
            BLOCKS
                .get_or_init(|| cayman_obs::registry::counter("profile.blocks"))
                .add(profile.blocks_executed());
        }
        result
    }

    fn run_inner(&mut self, args: &[Value]) -> Result<ExecProfile, InterpError> {
        // A previous `run` moved the count table into its profile; rebuild
        // zeroed counts so each run profiles independently.
        if self.counts.len() != self.module.functions.len() {
            self.counts = self
                .module
                .functions
                .iter()
                .map(|f| vec![0u64; f.blocks.len()])
                .collect();
        }
        let entry = self
            .module
            .entry_function()
            .ok_or_else(|| InterpError::new("module has no functions"))?;
        let ret = if let Engine::Decoded(dm) = &self.engine {
            let mut ctx = crate::decode::ExecCtx {
                module: self.module,
                dm,
                memory: &mut self.memory,
                counts: &mut self.counts,
                steps: &mut self.steps,
                step_limit: self.step_limit,
                scratch: Vec::new(),
            };
            ctx.call(entry, args)?
        } else {
            self.call(entry, args)?
        };
        let block_counts = std::mem::take(&mut self.counts);
        let mut total = 0u64;
        for (f, per_block) in block_counts.iter().enumerate() {
            for (b, &c) in per_block.iter().enumerate() {
                total += c * self.static_cycles[f][b];
            }
        }
        Ok(ExecProfile {
            block_counts,
            total_cycles: total,
            return_value: ret,
        })
    }

    fn call(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, InterpError> {
        let func = self.module.function(f);
        if args.len() != func.params.len() {
            return Err(InterpError::new(format!(
                "function `{}` expects {} args, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut vals: Vec<Option<Value>> = vec![None; func.values.len()];
        for (i, &a) in args.iter().enumerate() {
            vals[i] = Some(a);
        }

        let mut block = func.entry();
        let mut prev: Option<BlockId> = None;
        loop {
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(InterpError::new("step limit exceeded"));
            }
            self.counts[f.index()][block.index()] += 1;
            let blk = func.block(block);

            // Phase 1: evaluate phis in parallel against the incoming edge.
            let mut phi_updates: Vec<(ValueId, Value)> = Vec::new();
            for &iid in &blk.instrs {
                let Instr::Phi { incomings, .. } = func.instr(iid) else {
                    break;
                };
                let p = prev.ok_or_else(|| InterpError::new("phi encountered in entry block"))?;
                let (_, op) = incomings
                    .iter()
                    .find(|(pb, _)| *pb == p)
                    .ok_or_else(|| InterpError::new(format!("phi missing incoming for {p}")))?;
                let v = self.eval_operand(func, &vals, *op)?;
                let res = func.result_of(iid).expect("phi produces a value");
                phi_updates.push((res, v));
            }
            for (r, v) in phi_updates {
                vals[r.index()] = Some(v);
            }

            // Phase 2: the rest of the block.
            for &iid in &blk.instrs {
                let instr = func.instr(iid);
                if matches!(instr, Instr::Phi { .. }) {
                    continue;
                }
                let result = self.exec_instr(func, &vals, instr)?;
                if let Some(res) = func.result_of(iid) {
                    vals[res.index()] = Some(result.ok_or_else(|| {
                        InterpError::new("value-producing instruction produced nothing")
                    })?);
                }
            }

            match blk.terminator() {
                Terminator::Br(t) => {
                    prev = Some(block);
                    block = *t;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.eval_operand(func, &vals, *cond)?.as_b()?;
                    prev = Some(block);
                    block = if c { *then_bb } else { *else_bb };
                }
                Terminator::Ret(v) => {
                    return match v {
                        Some(op) => Ok(Some(self.eval_operand(func, &vals, *op)?)),
                        None => Ok(None),
                    };
                }
            }
        }
    }

    fn eval_operand(
        &self,
        func: &Function,
        vals: &[Option<Value>],
        op: Operand,
    ) -> Result<Value, InterpError> {
        match op {
            Operand::Const(Imm::Int(v)) => Ok(Value::I(v)),
            Operand::Const(Imm::Float(v)) => Ok(Value::F(v)),
            Operand::Const(Imm::Bool(v)) => Ok(Value::B(v)),
            Operand::Value(v) => vals[v.index()].ok_or_else(|| {
                let what = match func.values[v.index()] {
                    ValueDef::Param(i, _) => format!("param {i}"),
                    ValueDef::Instr(i) => format!("instr {i}"),
                };
                InterpError::new(format!("use of undefined value {v} ({what})"))
            }),
        }
    }

    fn exec_instr(
        &mut self,
        func: &Function,
        vals: &[Option<Value>],
        instr: &Instr,
    ) -> Result<Option<Value>, InterpError> {
        match instr {
            Instr::Binary { op, ty, lhs, rhs } => {
                let l = self.eval_operand(func, vals, *lhs)?;
                let r = self.eval_operand(func, vals, *rhs)?;
                Ok(Some(exec_binary(*op, *ty, l, r)?))
            }
            Instr::Unary { op, val, .. } => {
                let v = self.eval_operand(func, vals, *val)?;
                Ok(Some(exec_unary(*op, v)?))
            }
            Instr::Cmp { pred, ty, lhs, rhs } => {
                let l = self.eval_operand(func, vals, *lhs)?;
                let r = self.eval_operand(func, vals, *rhs)?;
                Ok(Some(Value::B(exec_cmp(*pred, *ty, l, r)?)))
            }
            Instr::Select {
                cond,
                then_val,
                else_val,
                ..
            } => {
                let c = self.eval_operand(func, vals, *cond)?.as_b()?;
                let v = if c {
                    self.eval_operand(func, vals, *then_val)?
                } else {
                    self.eval_operand(func, vals, *else_val)?
                };
                Ok(Some(v))
            }
            Instr::Gep { array, indices } => {
                let decl = self.module.array(*array);
                let strides = decl.strides();
                let mut flat: i64 = 0;
                for (k, idx) in indices.iter().enumerate() {
                    let i = self.eval_operand(func, vals, *idx)?.as_i()?;
                    if i < 0 || i as usize >= decl.dims[k] {
                        return Err(InterpError::new(format!(
                            "index {i} out of bounds for dim {k} (size {}) of `{}`",
                            decl.dims[k], decl.name
                        )));
                    }
                    flat += i * strides[k] as i64;
                }
                let a = self.memory.addr(*array, flat as usize)?;
                Ok(Some(Value::P(a)))
            }
            Instr::Load { ptr, .. } => {
                let p = self.eval_operand(func, vals, *ptr)?.as_p()?;
                Ok(Some(self.memory.cells[p]))
            }
            Instr::Store { ptr, value, .. } => {
                let p = self.eval_operand(func, vals, *ptr)?.as_p()?;
                let v = self.eval_operand(func, vals, *value)?;
                self.memory.cells[p] = v;
                Ok(None)
            }
            Instr::Phi { .. } => unreachable!("phis handled in block prologue"),
            Instr::Call { callee, args, ty } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_operand(func, vals, *a)?);
                }
                let r = self.call(*callee, &argv)?;
                match (r, ty) {
                    (Some(v), Some(_)) => Ok(Some(v)),
                    (None, None) => Ok(None),
                    _ => Err(InterpError::new("call result arity mismatch")),
                }
            }
        }
    }
}

pub(crate) fn exec_binary(op: BinOp, ty: Type, l: Value, r: Value) -> Result<Value, InterpError> {
    if op.is_float() {
        let (a, b) = (l.as_f()?, r.as_f()?);
        let v = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            BinOp::FMin => a.min(b),
            BinOp::FMax => a.max(b),
            _ => unreachable!(),
        };
        Ok(Value::F(v))
    } else {
        let (a, b) = (l.as_i()?, r.as_i()?);
        let v = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(InterpError::new("integer division by zero"));
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(InterpError::new("integer remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            _ => unreachable!(),
        };
        let v = match ty {
            Type::I32 => (v as i32) as i64,
            _ => v,
        };
        Ok(Value::I(v))
    }
}

pub(crate) fn exec_unary(op: UnaryOp, v: Value) -> Result<Value, InterpError> {
    Ok(match op {
        UnaryOp::Neg => Value::I(v.as_i()?.wrapping_neg()),
        UnaryOp::Not => Value::I(!v.as_i()?),
        UnaryOp::FNeg => Value::F(-v.as_f()?),
        UnaryOp::FAbs => Value::F(v.as_f()?.abs()),
        UnaryOp::Sqrt => Value::F(v.as_f()?.sqrt()),
        UnaryOp::Exp => Value::F(v.as_f()?.exp()),
        UnaryOp::Log => Value::F(v.as_f()?.ln()),
        UnaryOp::SiToFp => Value::F(v.as_i()? as f64),
        UnaryOp::FpToSi => Value::I(v.as_f()? as i64),
    })
}

pub(crate) fn exec_cmp(pred: CmpPred, ty: Type, l: Value, r: Value) -> Result<bool, InterpError> {
    if ty.is_float() {
        let (a, b) = (l.as_f()?, r.as_f()?);
        Ok(match pred {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        })
    } else {
        let (a, b) = (l.as_i()?, r.as_i()?);
        Ok(match pred {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn saxpy_executes_correctly() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        let y = mb.array("y", Type::F64, &[8]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let k = fb.fconst(3.0);
                let b = fb.fconst(1.0);
                let t = fb.fmul(k, xv);
                let v = fb.fadd(t, b);
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let mut interp = Interp::new(&m);
        for i in 0..8 {
            interp.memory.set_f64(x, i, i as f64);
        }
        let prof = interp.run(&[]).expect("runs");
        for i in 0..8 {
            assert_eq!(interp.memory.get_f64(y, i), 3.0 * i as f64 + 1.0);
        }
        // entry 1, header 9, body 8, exit 1
        assert_eq!(prof.count(FuncId(0), BlockId(0)), 1);
        assert_eq!(prof.count(FuncId(0), BlockId(1)), 9);
        assert_eq!(prof.count(FuncId(0), BlockId(2)), 8);
        assert_eq!(prof.count(FuncId(0), BlockId(3)), 1);
        assert!(prof.total_cycles > 0);
        assert!(prof.total_seconds() > 0.0);
    }

    #[test]
    fn carried_reduction_returns_sum() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[4]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let f = fb.counted_loop_carry(0, 4, 1, &[(Type::F64, init)], |fb, i, c| {
                let v = fb.load_idx(x, &[i]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let mut interp = Interp::new(&m);
        for i in 0..4 {
            interp.memory.set_f64(x, i, (i + 1) as f64);
        }
        let prof = interp.run(&[]).expect("runs");
        assert_eq!(prof.return_value, Some(Value::F(10.0)));
    }

    #[test]
    fn conditional_branches_both_ways() {
        let mut mb = ModuleBuilder::new("t");
        let out = mb.array("out", Type::I64, &[8]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let four = fb.iconst(4);
                let c = fb.icmp_lt(i, four);
                fb.if_then_else(
                    c,
                    |fb| fb.store_idx_ty(out, &[i], Operand::int(1), Type::I64),
                    |fb| fb.store_idx_ty(out, &[i], Operand::int(2), Type::I64),
                );
            });
            fb.ret(None);
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let mut interp = Interp::new(&m);
        interp.run(&[]).expect("runs");
        for i in 0..8 {
            assert_eq!(interp.memory.get_i64(out, i), if i < 4 { 1 } else { 2 });
        }
    }

    #[test]
    fn calls_transfer_args_and_results() {
        let mut mb = ModuleBuilder::new("t");
        let sq = mb.function("square", &[Type::I64], Some(Type::I64), |fb| {
            let p = fb.param(0);
            let r = fb.mul(p, p);
            fb.ret(Some(r));
        });
        mb.function("main", &[], Some(Type::I64), |fb| {
            let five = fb.iconst(5);
            let r = fb.call(sq, &[five], Some(Type::I64)).expect("value");
            fb.ret(Some(r));
        });
        let m = mb.finish();
        m.verify().expect("verifies");
        let mut interp = Interp::new(&m);
        let prof = interp.run(&[]).expect("runs");
        assert_eq!(prof.return_value, Some(Value::I(25)));
        // callee blocks were counted too
        assert_eq!(prof.count(FuncId(0), BlockId(0)), 1);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[4]);
        mb.function("main", &[], None, |fb| {
            let i = fb.iconst(9);
            let _ = fb.load_idx(x, &[i]);
            fb.ret(None);
        });
        let m = mb.finish();
        let mut interp = Interp::new(&m);
        let e = interp.run(&[]).expect_err("must fail");
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[], None, |fb| {
            let spin = fb.new_block("spin");
            fb.br(spin);
            fb.switch_to(spin);
            fb.br(spin);
        });
        let m = mb.finish();
        let mut interp = Interp::new(&m).with_step_limit(1000);
        let e = interp.run(&[]).expect_err("must fail");
        assert!(e.message.contains("step limit"), "{e}");
    }

    use crate::instr::Operand;
    use crate::module::{BlockId, FuncId};
}
