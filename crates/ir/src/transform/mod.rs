//! IR normalization: a pass manager, the standard `-O1` pipeline and the
//! `-O2` address-canonicalization pipeline.
//!
//! Builder-generated (and especially parser-generated) modules carry
//! redundancy — constant subexpressions, duplicate address computations,
//! branches on known conditions — that inflates both profiling cost and the
//! wPST the analysis crate builds on top of the CFG. The paper's flow
//! piggybacks on LLVM `-O1` before instrumenting; this module is the
//! reproduction's equivalent: a small pipeline of semantics-preserving
//! rewrites run before profiling and region analysis.
//!
//! Every [`Pass`] rewrites one function. There is one driver,
//! [`PassManager::run`]: it sweeps a pipeline's passes over one function,
//! detached from its module, until a sweep changes nothing. The module is
//! only read: its array declarations by the passes, its callee signatures
//! by the optional verifier. [`normalize_function`] runs the `-O1`
//! pipeline on one function of a module and writes it back on success;
//! [`normalize`] runs it on each function in turn.
//!
//! The `-O1` pipeline iterates four passes to a fixed point
//! — [`SimplifyCfg`], [`ConstFold`], [`Gvn`], [`Dce`] — then runs
//! [`Compact`] to rebuild the instruction arena without the dropped
//! instructions.
//!
//! [`PassManager::address_canon`] is the loop pipeline, [`StrengthReduce`]
//! and [`Licm`]. Its job is to canonicalize gep address arithmetic (shifts
//! to multiplies, subtracts to adds, folded constant chains) and hoist the
//! loop-invariant parts, so the analysis crate's SCEV sees clean affine
//! induction expressions. It preserves `InstrId`s/`ValueId`s and the CFG
//! exactly (no [`Compact`], no deletions). At `-O2`, `cayman-core` runs it
//! on per-function analysis *shadows* and maps the resulting facts back
//! onto the executed `-O1` body by instruction id; the executed program is
//! the `-O1` one at both levels.
//!
//! ## Semantics contract
//!
//! Passes preserve *observable behavior*: final memory image, return value,
//! and whether/with which message execution errors. For well-typed modules
//! this is exact. Verified-but-type-confused modules (the verifier does not
//! type-check most non-phi operands) may lose a runtime type error when the
//! offending instruction is unused — this mirrors LLVM, where UB-adjacent
//! dead code may be deleted. Concretely:
//!
//! * constant folding evaluates through the interpreter's own
//!   [`crate::interp`] kernels, so wrapping, `i32` narrowing and NaN
//!   behavior are bit-identical; fold attempts that would error at runtime
//!   (division by zero, type confusion) are simply not folded;
//! * DCE only deletes unused instructions it can prove side-effect- and
//!   trap-free (e.g. `sdiv` only with a non-zero constant divisor, `gep`
//!   only with provably in-bounds constant indices);
//! * GVN deletes an instruction only when an identical one (same opcode,
//!   same SSA operands) dominates it, so the surviving instance executes
//!   first on every path and traps first if either would.

mod constfold;
mod dce;
mod gvn;
mod licm;
mod simplify_cfg;
mod strength_reduce;

pub use constfold::ConstFold;
pub use dce::Dce;
pub use gvn::Gvn;
pub use licm::Licm;
pub use simplify_cfg::SimplifyCfg;
pub use strength_reduce::StrengthReduce;

use crate::instr::Operand;
use crate::module::{ArrayDecl, FuncId, Function, InstrId, Module, ValueDef, ValueId};
use crate::verify::VerifyError;
use std::fmt;

/// A rewrite of one function. Implementations must keep the function
/// verifiable against its module and keep its parameter and return types
/// (see the module docs for the semantics contract), and must return
/// `true` iff they changed `func`: fixed-point iteration relies on
/// accurate reports for termination.
///
/// A pass sees one function and the module's array declarations, nothing
/// else, so it cannot read or write another function. That is what lets
/// `cayman-core`'s incremental pipeline key normalization by function
/// content.
pub trait Pass {
    /// Short kebab-case name for stats and diagnostics.
    fn name(&self) -> &'static str;

    /// Rewrites `func`, whose module declares `arrays`; returns whether
    /// anything changed.
    fn run(&self, arrays: &[ArrayDecl], func: &mut Function) -> bool;
}

/// How aggressively a module is rewritten before it is analysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No rewrites; the module is analysed as built.
    O0,
    /// The standard pipeline: simplify-cfg, constant folding, GVN, DCE,
    /// iterated to a fixed point, then arena compaction.
    #[default]
    O1,
    /// `-O1` for the executed program (so [`normalize`] treats it as
    /// `-O1`), plus [`PassManager::address_canon`] on the analysis shadows
    /// `cayman-core` builds of each normalized function.
    O2,
}

impl OptLevel {
    /// Parses `"O0"` / `"-O0"` / `"O1"` / `"-O1"` / `"O2"` / `"-O2"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim_start_matches('-') {
            "O0" => Some(OptLevel::O0),
            "O1" => Some(OptLevel::O1),
            "O2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

/// Per-pass counters accumulated by [`PassManager::run`]. Each
/// run's time is in the trace, as a `normalize.<pass>` span.
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Pass name.
    pub name: &'static str,
    /// Number of times the pass ran.
    pub runs: u32,
    /// Number of runs that reported a change.
    pub changed: u32,
}

/// Aggregate counts of one [`PassManager::run`] (or, merged, of
/// one [`normalize`]), printable in the same single-line style as the
/// selection engine's `SelectStats`. They are counts only; each function's
/// time is its `normalize.pipeline` trace span.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Per-pass counters, in pipeline order.
    pub passes: Vec<PassStats>,
    /// Fixed-point iterations executed.
    pub iterations: u32,
    /// Number of inter-pass verifier runs.
    pub verify_runs: u32,
}

impl PipelineStats {
    /// Total number of changing pass runs across the pipeline.
    pub fn total_changes(&self) -> u32 {
        self.passes.iter().map(|p| p.changed).sum()
    }

    /// Folds another run's counters into this one. Used to aggregate
    /// per-function [`PassManager::run`] stats into one
    /// module-level summary: passes are aligned by name (run/changed
    /// counters add), `iterations` reports the deepest per-function fixed
    /// point, and verifier runs accumulate.
    pub fn merge(&mut self, other: &PipelineStats) {
        for p in &other.passes {
            match self.passes.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.runs += p.runs;
                    q.changed += p.changed;
                }
                None => self.passes.push(p.clone()),
            }
        }
        self.iterations = self.iterations.max(other.iterations);
        self.verify_runs += other.verify_runs;
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normalize: {} iteration(s)", self.iterations)?;
        for p in &self.passes {
            write!(f, ", {} {}/{} changed", p.name, p.changed, p.runs)?;
        }
        if self.verify_runs > 0 {
            write!(f, ", verified {}x", self.verify_runs)?;
        }
        Ok(())
    }
}

/// Sweeps of the pass list a pipeline runs before it stops short of a
/// fixed point.
const MAX_SWEEPS: u32 = 10;

/// A fixed list of passes run over one function until a sweep changes
/// nothing, with per-pass run/changed counters, a trace span per pass run
/// and optional verification between passes.
pub struct PassManager {
    passes: &'static [&'static dyn Pass],
    verify_each: bool,
}

impl PassManager {
    fn of(passes: &'static [&'static dyn Pass]) -> Self {
        PassManager {
            passes,
            verify_each: false,
        }
    }

    /// The standard `-O1` pipeline: simplify-cfg → constfold → gvn → dce →
    /// compact, iterated to a fixed point.
    pub fn standard() -> Self {
        PassManager::of(&[&SimplifyCfg, &ConstFold, &Gvn, &Dce, &Compact])
    }

    /// The identity-preserving address-canonicalization pipeline:
    /// strength reduction + LICM to a fixed point, **without** compaction or
    /// any deleting pass. `InstrId`s, `ValueId`s, block set and terminators
    /// are exactly those of the input — only instruction operands/opcodes
    /// and block membership of pure scalar ops change. This is the pipeline
    /// `cayman-core` runs on per-function analysis shadows at `-O2`, and
    /// the only one that runs strength reduction and LICM.
    pub fn address_canon() -> Self {
        PassManager::of(&[&StrengthReduce, &Licm])
    }

    /// Verifies the function before the first pass and after every pass
    /// that changed it, aborting on the first failure. The check is the
    /// verifier's per-function one, against the module's arrays and callee
    /// signatures, plus a check that the function's parameter and return
    /// types are unchanged: that is the only way rewriting one function
    /// can break another.
    pub fn verify_each_pass(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Runs the pass list over `func`, a function of `module` detached from
    /// it, until a sweep changes nothing, up to a fixed sweep bound.
    ///
    /// With `verify_each_pass` enabled, returns the first failure (`func`
    /// is left in its mid-pipeline state for inspection).
    pub fn run(&self, module: &Module, func: &mut Function) -> Result<PipelineStats, VerifyError> {
        let _span = cayman_obs::span!("normalize.pipeline");
        let mut stats = PipelineStats {
            passes: self
                .passes
                .iter()
                .map(|p| PassStats {
                    name: p.name(),
                    runs: 0,
                    changed: 0,
                })
                .collect(),
            ..PipelineStats::default()
        };
        let (params, ret) = (func.params.clone(), func.ret);
        let check = |func: &Function| {
            if func.params != params || func.ret != ret {
                return Err(VerifyError {
                    func: func.name.clone(),
                    message: "parameter or return types changed".into(),
                });
            }
            module.verify_function(func)
        };
        if self.verify_each {
            check(func)?;
            stats.verify_runs += 1;
        }
        for _ in 0..MAX_SWEEPS {
            stats.iterations += 1;
            let mut any = false;
            for (pass, counts) in self.passes.iter().zip(&mut stats.passes) {
                let changed = {
                    let _span = cayman_obs::span!(("normalize.", pass.name()));
                    pass.run(&module.arrays, func)
                };
                counts.runs += 1;
                if changed {
                    counts.changed += 1;
                    any = true;
                    if self.verify_each {
                        check(func).map_err(|e| VerifyError {
                            func: e.func,
                            message: format!("after pass `{}`: {}", pass.name(), e.message),
                        })?;
                        stats.verify_runs += 1;
                    }
                }
            }
            if !any {
                break;
            }
        }
        Ok(stats)
    }
}

/// Normalizes every function of `module` at the given [`OptLevel`], one
/// [`normalize_function`] after another, and merges their stats.
///
/// `O0` is a no-op (empty stats). With `verify_each_pass`, each function
/// is verified before its pipeline, which verifies the module once, and
/// after every pass that changed it.
pub fn normalize(
    module: &mut Module,
    level: OptLevel,
    verify_each_pass: bool,
) -> Result<PipelineStats, VerifyError> {
    let mut stats = PipelineStats::default();
    for f in 0..module.functions.len() as u32 {
        let run = normalize_function(module, FuncId(f), level, verify_each_pass)?;
        stats.merge(&run);
    }
    Ok(stats)
}

/// Normalizes function `func` of `module` at the given [`OptLevel`]:
/// [`PassManager::standard`] at `O1` and `O2`, nothing at `O0`. The
/// pipeline rewrites a copy of the function, which replaces
/// `module.functions[func]` only when the pipeline succeeds.
pub fn normalize_function(
    module: &mut Module,
    func: FuncId,
    level: OptLevel,
    verify_each_pass: bool,
) -> Result<PipelineStats, VerifyError> {
    let pipeline = match level {
        OptLevel::O0 => return Ok(PipelineStats::default()),
        OptLevel::O1 | OptLevel::O2 => PassManager::standard(),
    };
    rewrite(&pipeline.verify_each_pass(verify_each_pass), module, func)
}

/// Runs `pipeline` on a copy of function `func` of `module`, which replaces
/// the original only when the pipeline succeeds.
fn rewrite(
    pipeline: &PassManager,
    module: &mut Module,
    func: FuncId,
) -> Result<PipelineStats, VerifyError> {
    let mut body = module.function(func).clone();
    let stats = pipeline.run(module, &mut body)?;
    module.functions[func.index()] = body;
    Ok(stats)
}

/// Replaces every use of `from` (in placed instructions and terminators of
/// `func`) with `to`. Returns the number of uses rewritten.
pub fn replace_all_uses(func: &mut Function, from: ValueId, to: Operand) -> usize {
    let mut n = 0;
    let mut rewrite = |op: &mut Operand| {
        if *op == Operand::Value(from) {
            *op = to;
            n += 1;
        }
    };
    for instr in &mut func.instrs {
        instr.for_each_operand_mut(&mut rewrite);
    }
    for block in &mut func.blocks {
        if let Some(term) = &mut block.term {
            term.for_each_operand_mut(&mut rewrite);
        }
    }
    n
}

/// Per-value use counts over placed instructions and terminators.
pub(crate) fn use_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.values.len()];
    let mut count = |op: Operand| {
        if let Operand::Value(v) = op {
            counts[v.index()] += 1;
        }
    };
    for b in func.block_ids() {
        let block = func.block(b);
        for &iid in &block.instrs {
            func.instr(iid).for_each_operand(&mut count);
        }
        if let Some(term) = &block.term {
            term.for_each_operand(&mut count);
        }
    }
    counts
}

/// Rebuilds a function's instruction arena and value list without
/// instructions that are in no block (the leftovers DCE / GVN / simplify-cfg
/// unlink), renumbering [`InstrId`]s and [`ValueId`]s.
///
/// Idempotent: reports no change once every arena instruction is placed.
/// Functions in which a *placed* instruction uses the result of an
/// *unplaced* one (legal per the verifier, which treats unplaced defs as
/// entry-block defs) are left untouched.
pub struct Compact;

impl Pass for Compact {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
        compact_function(func)
    }
}

fn compact_function(func: &mut Function) -> bool {
    let placed = func.instr_block_map().to_vec();
    let live = placed
        .iter()
        .filter(|&&b| b != crate::module::NO_BLOCK)
        .count();
    if live == func.instrs.len() {
        return false;
    }
    // Bail if any placed instruction (or terminator) uses an unplaced def.
    let counts = use_counts(func);
    for (v, def) in func.values.iter().enumerate() {
        if let ValueDef::Instr(i) = def {
            if placed[i.index()] == crate::module::NO_BLOCK && counts[v] > 0 {
                return false;
            }
        }
    }

    // Renumber live instructions in arena order.
    let mut instr_map = vec![u32::MAX; func.instrs.len()];
    let mut new_instrs = Vec::with_capacity(live);
    for (i, instr) in func.instrs.iter().enumerate() {
        if placed[i] != crate::module::NO_BLOCK {
            instr_map[i] = new_instrs.len() as u32;
            new_instrs.push(instr.clone());
        }
    }
    // Rebuild values (params keep their slots; results of dropped
    // instructions disappear) and instr_results.
    let mut value_map = vec![u32::MAX; func.values.len()];
    let mut new_values = Vec::with_capacity(func.values.len());
    let mut new_results = vec![None; new_instrs.len()];
    for (v, def) in func.values.iter().enumerate() {
        match def {
            ValueDef::Param(..) => {
                value_map[v] = new_values.len() as u32;
                new_values.push(*def);
            }
            ValueDef::Instr(i) => {
                let ni = instr_map[i.index()];
                if ni != u32::MAX {
                    value_map[v] = new_values.len() as u32;
                    new_values.push(ValueDef::Instr(InstrId(ni)));
                    new_results[ni as usize] = Some(ValueId(new_values.len() as u32 - 1));
                }
            }
        }
    }
    // Rewrite operands and block instruction lists.
    let remap_op = |op: &mut Operand| {
        if let Operand::Value(v) = op {
            let nv = value_map[v.index()];
            debug_assert_ne!(nv, u32::MAX, "use of dropped value survived compaction");
            *v = ValueId(nv);
        }
    };
    for instr in &mut new_instrs {
        instr.for_each_operand_mut(remap_op);
    }
    for block in &mut func.blocks {
        for iid in &mut block.instrs {
            *iid = InstrId(instr_map[iid.index()]);
        }
        if let Some(term) = &mut block.term {
            term.for_each_operand_mut(remap_op);
        }
    }
    func.instrs = new_instrs;
    func.values = new_values;
    func.instr_results = new_results;
    func.invalidate_block_map();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    /// `@helper` feeds its caller an `i64`; `%2` uses `%1` from the line
    /// above it.
    const FIXTURE: &str = "; module t
fn @helper(i64 %0) -> i64 {
bb0: ; entry
  %1 = add i64 %0, 1
  %2 = mul i64 %1, 3
  ret %2
}

fn @main() -> i64 {
bb0: ; entry
  %0 = call i64 @helper(4)
  ret %0
}
";

    /// Moves every use in the entry block above its definition.
    struct ReverseEntry;

    impl Pass for ReverseEntry {
        fn name(&self) -> &'static str {
            "reverse-entry"
        }

        fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
            func.blocks[0].instrs.reverse();
            func.invalidate_block_map();
            true
        }
    }

    /// Makes the function return `f64`: its body still verifies, but its
    /// callers now read the wrong type.
    struct Retype;

    impl Pass for Retype {
        fn name(&self) -> &'static str {
            "retype"
        }

        fn run(&self, _arrays: &[ArrayDecl], func: &mut Function) -> bool {
            func.ret = Some(Type::F64);
            true
        }
    }

    /// Runs `pass` on `@helper` with verification after each pass, and
    /// returns the failure after checking that `@helper` is untouched.
    fn broken_by(pass: &'static [&'static dyn Pass]) -> VerifyError {
        let mut m = Module::parse_text(FIXTURE).expect("fixture parses");
        m.verify().expect("fixture verifies");
        let before = m.clone();
        let pipeline = PassManager::of(pass).verify_each_pass(true);
        let err = rewrite(&pipeline, &mut m, FuncId(0)).expect_err("the pass breaks @helper");
        assert_eq!(m, before, "a failed pipeline left the module as it was");
        err
    }

    #[test]
    fn a_use_above_its_definition_fails_after_the_pass() {
        let err = broken_by(&[&ReverseEntry]);
        assert_eq!(err.func, "helper");
        assert!(
            err.message.starts_with("after pass `reverse-entry`: ")
                && err.message.contains("used before definition"),
            "{err}"
        );
    }

    #[test]
    fn a_changed_return_type_fails_after_the_pass() {
        let err = broken_by(&[&Retype]);
        assert_eq!(err.func, "helper");
        assert_eq!(
            err.message,
            "after pass `retype`: parameter or return types changed"
        );
    }
}
