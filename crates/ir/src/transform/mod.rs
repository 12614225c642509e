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
//! detached from its module, until every pass is clean. The module is
//! only read: its array declarations by the passes, its callee signatures
//! by the optional verifier. [`normalize_function`] runs the `-O1`
//! pipeline on one function of a module and writes it back on success;
//! [`normalize`] runs it on each function in turn.
//!
//! The `-O1` pipeline sweeps [`SimplifyCfg`], [`ConstFold`], [`Gvn`],
//! [`Dce`] and [`Compact`] (which rebuilds the instruction arena without
//! the dropped instructions) to a fixed point.
//!
//! ## The skip rule
//!
//! A sweep skips a *clean* pass: one that has run since the last change by
//! any pass that [feeds](Pass::feeds) it. Every pass starts dirty, and the
//! run ends when every pass is clean, so the result is the one a loop that
//! runs every pass until a whole sweep changes nothing would give (pinned
//! by `tests/prop_pipeline.rs`) without most of its confirming runs. The
//! `-O1` passes declare:
//!
//! | pass | feeds | why |
//! |---|---|---|
//! | simplify-cfg | constfold, gvn, dce, compact | a pruned phi can be left with equal incomings; a merge or a deleted edge makes blocks dominate others; a deleted incoming can take a value's last use; deleted blocks and forwarded phis leave unplaced instructions |
//! | constfold | simplify-cfg, gvn, dce | a folded branch condition; a replaced operand can make two expressions equal; a folded instruction loses its uses |
//! | gvn | constfold, compact | rewriting a deleted copy's uses can give a phi equal incomings; the copies are left unplaced |
//! | dce | compact | the unlinked instructions |
//! | compact | — | renumbering keeps every id's identity and arena order, which is all a pass reads of an id |
//!
//! No `-O1` pass feeds itself: simplify-cfg, constfold and dce each repeat
//! their rewrites until none fires, and one GVN walk finds every
//! dominated copy. What each declaration leaves out is argued on its
//! `feeds` method. [`PassManager::address_canon`]'s passes keep the
//! default, every pass: any change there makes every pass, itself
//! included, run again.
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
//! this is exact. The verifier types every value operand, gep index,
//! address, call argument, branch condition and returned value; what it
//! leaves unchecked is the kind of an immediate read by arithmetic, a
//! compare, a select, a phi or a store, and the operand of a conversion. A
//! verified module confused only there may lose its runtime type error
//! when the offending instruction is unused — this mirrors LLVM, where
//! UB-adjacent dead code may be deleted. Concretely:
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

    /// The passes a change made by this pass can give new work to; see
    /// [`Feeds`] for what a declaration promises. The default, every pass,
    /// is always safe.
    fn feeds(&self) -> Feeds {
        Feeds::All
    }

    /// Rewrites `func`, whose module declares `arrays`; returns whether
    /// anything changed.
    fn run(&self, arrays: &[ArrayDecl], func: &mut Function) -> bool;
}

/// Which passes of a pipeline a [`Pass`]'s change can give new work to.
///
/// [`PassManager::run`] skips a pass that has run since the last change by
/// any pass that feeds it, so a declaration that leaves out pass `p`
/// promises: whenever `p` would change nothing, it still changes nothing
/// after this pass's change. A pass that leaves itself out promises that a
/// second run right after its own changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feeds {
    /// Every pass of the pipeline, this one included.
    All,
    /// Only the passes of the pipeline with these names.
    Only(&'static [&'static str]),
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
    /// Number of times the pass ran (a skipped clean pass does not run).
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
    /// Sweeps that ran at least one pass.
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

/// A fixed list of passes run over one function until every pass is clean
/// (see [`PassManager::run`]), with per-pass run/changed counters, a trace
/// span per pass run and optional verification between passes.
pub struct PassManager {
    passes: &'static [&'static dyn Pass],
    /// `feeds[i]`: the bit set of the passes that a change by pass `i`
    /// makes dirty (bit `j` for `passes[j]`).
    feeds: Vec<u64>,
    verify_each: bool,
}

impl PassManager {
    fn of(passes: &'static [&'static dyn Pass]) -> Self {
        assert!(passes.len() <= 64, "a pipeline has at most 64 passes");
        let all = every_pass(passes.len());
        let feeds = passes
            .iter()
            .map(|p| match p.feeds() {
                Feeds::All => all,
                Feeds::Only(names) => names.iter().fold(0, |mask, name| {
                    let j = passes.iter().position(|q| q.name() == *name);
                    debug_assert!(j.is_some(), "`{}` feeds unknown pass `{name}`", p.name());
                    j.map_or(mask, |j| mask | 1 << j)
                }),
            })
            .collect();
        PassManager {
            passes,
            feeds,
            verify_each: false,
        }
    }

    /// The standard `-O1` pipeline: simplify-cfg → constfold → gvn → dce →
    /// compact, iterated to a fixed point.
    pub fn standard() -> Self {
        PassManager::of(&[&SimplifyCfg, &ConstFold, &Gvn, &Dce, &Compact])
    }

    /// The pipeline's passes, in the order a sweep runs them.
    pub fn passes(&self) -> &'static [&'static dyn Pass] {
        self.passes
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
    /// it, until every pass is clean, up to a fixed sweep bound.
    ///
    /// Each sweep runs the passes in order but skips a clean one. Every
    /// pass starts dirty; running it makes it clean, and its change makes
    /// dirty every pass it [feeds](Pass::feeds). The run ends when a sweep
    /// would find every pass clean. A skipped pass would have changed
    /// nothing, so the result is the one a loop that runs every pass until
    /// a whole sweep changes nothing would give, without that loop's
    /// confirming runs.
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
        let mut dirty = every_pass(self.passes.len());
        for _ in 0..MAX_SWEEPS {
            if dirty == 0 {
                break;
            }
            stats.iterations += 1;
            for (i, (pass, counts)) in self.passes.iter().zip(&mut stats.passes).enumerate() {
                if dirty & 1 << i == 0 {
                    continue;
                }
                dirty &= !(1 << i);
                let changed = {
                    let _span = cayman_obs::span!(("normalize.", pass.name()));
                    pass.run(&module.arrays, func)
                };
                counts.runs += 1;
                if changed {
                    counts.changed += 1;
                    dirty |= self.feeds[i];
                    if self.verify_each {
                        check(func).map_err(|e| VerifyError {
                            func: e.func,
                            message: format!("after pass `{}`: {}", pass.name(), e.message),
                        })?;
                        stats.verify_runs += 1;
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// The bit set of the first `n` passes.
fn every_pass(n: usize) -> u64 {
    (0..n).fold(0, |mask, j| mask | 1 << j)
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

/// Rebuilds a function's instruction arena and value list without
/// instructions that are in no block (the leftovers DCE / GVN / simplify-cfg
/// unlink), renumbering [`InstrId`]s and [`ValueId`]s.
///
/// Idempotent: reports no change once every arena instruction is placed.
/// The function must verify, so no placed instruction or terminator uses
/// the result of an unplaced one.
pub struct Compact;

impl Pass for Compact {
    fn name(&self) -> &'static str {
        "compact"
    }

    /// Renumbering gives no pass work: none reads an id's value, only its
    /// identity and arena order, which compaction keeps.
    fn feeds(&self) -> Feeds {
        Feeds::Only(&[])
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

    // Renumber live instructions in arena order, moving them out of the
    // old arena.
    let mut instr_map = vec![u32::MAX; func.instrs.len()];
    let mut new_instrs = Vec::with_capacity(live);
    for (i, instr) in std::mem::take(&mut func.instrs).into_iter().enumerate() {
        if placed[i] != crate::module::NO_BLOCK {
            instr_map[i] = new_instrs.len() as u32;
            new_instrs.push(instr);
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
            debug_assert_ne!(
                nv,
                u32::MAX,
                "a placed use of an unplaced definition: the function does not verify"
            );
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

    /// Makes the function return `f64`, so its callers now read the wrong
    /// type.
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
