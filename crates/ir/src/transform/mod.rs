//! IR normalization: a pass manager and the standard `-O1`/`-O2` pipelines.
//!
//! Builder-generated (and especially parser-generated) modules carry
//! redundancy — constant subexpressions, duplicate address computations,
//! branches on known conditions — that inflates both profiling cost and the
//! wPST the analysis crate builds on top of the CFG. The paper's flow
//! piggybacks on LLVM `-O1` before instrumenting; this module is the
//! reproduction's equivalent: a small pipeline of semantics-preserving
//! rewrites run before profiling and region analysis.
//!
//! The `-O1` pipeline ([`normalize`]) iterates four passes to a fixed point
//! — [`SimplifyCfg`], [`ConstFold`], [`Gvn`], [`Dce`] — then runs
//! [`Compact`] to rebuild the instruction arena without the dropped
//! instructions. `-O2` adds the loop pipeline, [`StrengthReduce`] and
//! [`Licm`], whose job is to canonicalize gep address arithmetic (shifts to
//! multiplies, subtracts to adds, folded constant chains) and hoist the
//! loop-invariant parts, so the analysis crate's SCEV sees clean affine
//! induction expressions.
//!
//! [`PassManager::address_canon`] packages just that loop pipeline with a guarantee the
//! full `-O2` pipeline does not make: it preserves `InstrId`s/`ValueId`s
//! and the CFG exactly (no [`Compact`], no deletions). `cayman-core` runs
//! it on per-function analysis *shadows* and maps the resulting facts back
//! onto the executed `-O1` body by instruction id.
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
use crate::module::{FuncId, Function, InstrId, Module, ValueDef, ValueId};
use crate::verify::VerifyError;
use std::fmt;

/// Whether a pass changed the module — drives fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Changed {
    /// The pass rewrote something.
    Yes,
    /// The pass was a no-op on this module.
    No,
}

impl Changed {
    /// From a bool (`true` = changed).
    pub fn from_bool(b: bool) -> Self {
        if b {
            Changed::Yes
        } else {
            Changed::No
        }
    }

    /// As a bool (`true` = changed).
    pub fn as_bool(self) -> bool {
        self == Changed::Yes
    }
}

/// A module-level rewrite. Implementations must keep the module verifiable
/// (see the module docs for the semantics contract) and must report
/// [`Changed::Yes`] iff they mutated something — fixed-point iteration
/// relies on accurate reports for termination.
pub trait Pass {
    /// Short kebab-case name for stats and diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the pass over every function of `module`.
    fn run(&mut self, module: &mut Module) -> Changed;

    /// Runs the pass over a single function of `module`.
    ///
    /// Every standard pass is *function-local* — it never reads or writes
    /// another function — so `run` is exactly this folded over all
    /// functions, and a per-function fixed point converges to the same
    /// content as the module-level one (extra sweeps at a function's fixed
    /// point are no-ops). This is what lets `cayman-core`'s incremental
    /// pipeline key normalization by function content.
    fn run_fn(&mut self, module: &mut Module, func: FuncId) -> Changed;
}

/// How aggressively [`normalize`] rewrites a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No rewrites; the module is analysed as built.
    O0,
    /// The standard pipeline: simplify-cfg, constant folding, GVN, DCE,
    /// iterated to a fixed point, then arena compaction.
    #[default]
    O1,
    /// `-O1` plus the loop pipeline: strength reduction of address
    /// arithmetic and loop-invariant code motion.
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

/// Per-pass counters accumulated by [`PassManager::run`].
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Pass name.
    pub name: &'static str,
    /// Number of times the pass ran.
    pub runs: u32,
    /// Number of runs that reported a change.
    pub changed: u32,
    /// Total time spent inside the pass, in microseconds.
    pub micros: u128,
}

/// Aggregate outcome of one [`PassManager::run`], printable in the same
/// single-line style as the selection engine's `SelectStats`.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Per-pass counters, in pipeline order.
    pub passes: Vec<PassStats>,
    /// Fixed-point iterations executed.
    pub iterations: u32,
    /// Number of inter-pass verifier runs.
    pub verify_runs: u32,
    /// Wall-clock time of the whole run, in microseconds.
    pub wall_micros: u128,
}

impl PipelineStats {
    /// Total number of changing pass runs across the pipeline.
    pub fn total_changes(&self) -> u32 {
        self.passes.iter().map(|p| p.changed).sum()
    }

    /// Folds another run's counters into this one. Used to aggregate
    /// per-function [`PassManager::run_function`] stats into one
    /// module-level summary: passes are aligned by name (run/changed/time
    /// counters add), `iterations` reports the deepest per-function fixed
    /// point, and verifier runs and wall time accumulate.
    pub fn merge(&mut self, other: &PipelineStats) {
        for p in &other.passes {
            match self.passes.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.runs += p.runs;
                    q.changed += p.changed;
                    q.micros += p.micros;
                }
                None => self.passes.push(p.clone()),
            }
        }
        self.iterations = self.iterations.max(other.iterations);
        self.verify_runs += other.verify_runs;
        self.wall_micros += other.wall_micros;
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normalize: {} iteration(s)", self.iterations)?;
        for p in &self.passes {
            write!(
                f,
                ", {} {}/{} changed in {:.2}ms",
                p.name,
                p.changed,
                p.runs,
                p.micros as f64 / 1000.0
            )?;
        }
        if self.verify_runs > 0 {
            write!(f, ", verified {}x", self.verify_runs)?;
        }
        write!(f, ", wall {:.2}ms", self.wall_micros as f64 / 1000.0)
    }
}

/// Runs a declarative list of passes, optionally to a fixed point, with
/// per-pass timing/changed counters and optional verification between
/// passes.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    max_iters: u32,
}

impl PassManager {
    /// An empty manager that runs its passes once, without verification.
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            verify_each: false,
            max_iters: 1,
        }
    }

    /// The standard `-O1` pipeline: simplify-cfg → constfold → gvn → dce →
    /// compact, iterated to a fixed point.
    pub fn standard() -> Self {
        PassManager::new()
            .add(SimplifyCfg)
            .add(ConstFold)
            .add(Gvn)
            .add(Dce)
            .add(Compact)
            .fixpoint(10)
    }

    /// The standard `-O2` pipeline: `-O1` with strength reduction and LICM
    /// slotted in before compaction, iterated to a fixed point. The extra
    /// passes let GVN and DCE clean up the chains the rewrites strand.
    pub fn standard_o2() -> Self {
        PassManager::new()
            .add(SimplifyCfg)
            .add(ConstFold)
            .add(StrengthReduce)
            .add(Licm)
            .add(Gvn)
            .add(Dce)
            .add(Compact)
            .fixpoint(10)
    }

    /// The identity-preserving address-canonicalization pipeline:
    /// strength reduction + LICM to a fixed point, **without** compaction or
    /// any deleting pass. `InstrId`s, `ValueId`s, block set and terminators
    /// are exactly those of the input — only instruction operands/opcodes
    /// and block membership of pure scalar ops change. This is the pipeline
    /// `cayman-core` runs on per-function analysis shadows at `-O2`.
    pub fn address_canon() -> Self {
        PassManager::new()
            .add(StrengthReduce)
            .add(Licm)
            .fixpoint(10)
    }

    /// Appends a pass. (`add` is the established pass-manager idiom, not an
    /// arithmetic operation.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the verifier after every pass that changed the module (and once
    /// before the first pass), aborting the pipeline on the first failure.
    pub fn verify_each_pass(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Iterates the whole pass list until no pass reports a change, up to
    /// `max_iters` sweeps.
    pub fn fixpoint(mut self, max_iters: u32) -> Self {
        self.max_iters = max_iters.max(1);
        self
    }

    /// Runs the pipeline over `module`.
    ///
    /// With `verify_each_pass` enabled, returns the first verifier failure
    /// (the module is left in its mid-pipeline state for inspection).
    pub fn run(&mut self, module: &mut Module) -> Result<PipelineStats, VerifyError> {
        // One measurement source: the obs timed span both feeds the trace
        // (when enabled) and yields the nanos `PipelineStats` reports.
        let wall = cayman_obs::timed("normalize.pipeline");
        let mut stats = PipelineStats {
            passes: self
                .passes
                .iter()
                .map(|p| PassStats {
                    name: p.name(),
                    runs: 0,
                    changed: 0,
                    micros: 0,
                })
                .collect(),
            ..PipelineStats::default()
        };
        if self.verify_each {
            module.verify()?;
            stats.verify_runs += 1;
        }
        for _ in 0..self.max_iters {
            stats.iterations += 1;
            let mut any = false;
            for (i, pass) in self.passes.iter_mut().enumerate() {
                let t = cayman_obs::timed(("normalize.", pass.name()));
                let changed = pass.run(module).as_bool();
                stats.passes[i].micros += u128::from(t.finish()) / 1_000;
                stats.passes[i].runs += 1;
                if changed {
                    stats.passes[i].changed += 1;
                    any = true;
                    if self.verify_each {
                        module.verify().map_err(|e| VerifyError {
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
        stats.wall_micros = u128::from(wall.finish()) / 1_000;
        Ok(stats)
    }

    /// Runs the pipeline over a single function of `module`, iterating to
    /// the same per-pass-list fixed point as [`PassManager::run`] restricted
    /// to that function.
    ///
    /// Because every standard pass is function-local (see [`Pass::run_fn`]),
    /// the function's final content is bit-identical to what a module-level
    /// run would leave in it — the module loop merely keeps sweeping other
    /// functions' no-op rounds. This is the unit of `cayman-core`'s
    /// content-keyed normalize query.
    ///
    /// With `verify_each_pass`, the whole module is verified before the
    /// first pass and after every changing pass (function-local verification
    /// would miss cross-function call-signature breaks).
    pub fn run_function(
        &mut self,
        module: &mut Module,
        func: FuncId,
    ) -> Result<PipelineStats, VerifyError> {
        let wall = cayman_obs::timed("normalize.pipeline");
        let mut stats = PipelineStats {
            passes: self
                .passes
                .iter()
                .map(|p| PassStats {
                    name: p.name(),
                    runs: 0,
                    changed: 0,
                    micros: 0,
                })
                .collect(),
            ..PipelineStats::default()
        };
        if self.verify_each {
            module.verify()?;
            stats.verify_runs += 1;
        }
        for _ in 0..self.max_iters {
            stats.iterations += 1;
            let mut any = false;
            for (i, pass) in self.passes.iter_mut().enumerate() {
                let t = cayman_obs::timed(("normalize.", pass.name()));
                let changed = pass.run_fn(module, func).as_bool();
                stats.passes[i].micros += u128::from(t.finish()) / 1_000;
                stats.passes[i].runs += 1;
                if changed {
                    stats.passes[i].changed += 1;
                    any = true;
                    if self.verify_each {
                        module.verify().map_err(|e| VerifyError {
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
        stats.wall_micros = u128::from(wall.finish()) / 1_000;
        Ok(stats)
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new()
    }
}

/// Normalizes `module` at the given [`OptLevel`].
///
/// `O0` is a no-op (empty stats); `O1` runs [`PassManager::standard`]. With
/// `verify_each_pass`, the verifier runs before the pipeline and after every
/// changing pass.
pub fn normalize(
    module: &mut Module,
    level: OptLevel,
    verify_each_pass: bool,
) -> Result<PipelineStats, VerifyError> {
    match level {
        OptLevel::O0 => Ok(PipelineStats::default()),
        OptLevel::O1 => PassManager::standard()
            .verify_each_pass(verify_each_pass)
            .run(module),
        OptLevel::O2 => PassManager::standard_o2()
            .verify_each_pass(verify_each_pass)
            .run(module),
    }
}

/// Normalizes a single function of `module` at the given [`OptLevel`] —
/// [`normalize`] restricted to `func`; same fixed point, same final content
/// (see [`PassManager::run_function`] for why).
pub fn normalize_function(
    module: &mut Module,
    func: FuncId,
    level: OptLevel,
    verify_each_pass: bool,
) -> Result<PipelineStats, VerifyError> {
    match level {
        OptLevel::O0 => Ok(PipelineStats::default()),
        OptLevel::O1 => PassManager::standard()
            .verify_each_pass(verify_each_pass)
            .run_function(module, func),
        OptLevel::O2 => PassManager::standard_o2()
            .verify_each_pass(verify_each_pass)
            .run_function(module, func),
    }
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

/// Rebuilds each function's instruction arena and value list without
/// instructions that are in no block (the leftovers DCE / GVN / simplify-cfg
/// unlink), renumbering [`InstrId`]s and [`ValueId`]s.
///
/// Idempotent: reports [`Changed::No`] once every arena instruction is
/// placed. Functions in which a *placed* instruction uses the result of an
/// *unplaced* one (legal per the verifier, which treats unplaced defs as
/// entry-block defs) are left untouched.
pub struct Compact;

impl Pass for Compact {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn run(&mut self, module: &mut Module) -> Changed {
        let mut changed = false;
        for func in &mut module.functions {
            changed |= compact_function(func);
        }
        Changed::from_bool(changed)
    }

    fn run_fn(&mut self, module: &mut Module, func: FuncId) -> Changed {
        Changed::from_bool(compact_function(&mut module.functions[func.index()]))
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
