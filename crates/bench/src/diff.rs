//! Differential checking of one IR module across the full pipeline.
//!
//! This is the shared core of the `fuzz` binary and the root-crate
//! `pipeline_fuzz` property test: a module (typically from
//! `testkit::program`) is pushed through every crossed configuration the
//! repo supports, and any divergence is reported as a [`DiffFailure`]
//! naming the stage and the mismatching observable.
//!
//! The crossed surfaces, and what must be *bit-identical* on each:
//!
//! 1. **decoded vs reference interpreter** — dynamic block counts, total
//!    cycles, return-value bits, final memory cells; or, for trapping
//!    programs, the exact same error message.
//! 2. **`-O0` vs `-O1` normalization** — return-value bits and final memory
//!    cells (counts and cycles legitimately change; observables must not);
//!    and every normalized function is a fixed point: no pass of
//!    [`PassManager::standard`] changes it.
//! 3. **`-O1` vs `-O2` staging** — the `-O2` application executes the
//!    `-O1` body (the extra canonicalization lives in analysis shadows), so
//!    the executed module text, region profile and return value must be
//!    bit-identical; and whenever the shadows are no-ops (same content
//!    fingerprints) the full selection Pareto front must match bit for bit.
//! 4. **incremental vs from-scratch re-analysis** ([`check_incremental`]) —
//!    after every seeded single-instruction edit (a float nudge or an
//!    `fadd`/`fmul` swap), the [`IncrementalApp`]
//!    query pipeline must reproduce the from-scratch Pareto front, execution
//!    profile (block counts, total cycles, return-value bits) and
//!    merge accounting bit for bit; every execution the slice proof answered
//!    without a run
//!    is also re-run and must match. (The visited-vertex count is
//!    deliberately *not* compared here: cached subtree fronts legitimately
//!    skip visits.)

use cayman::hls::design::AcceleratorDesign;
use cayman::hls::inputs::{Candidate, CandidateKey, FuncInputs, RegionInputs};
use cayman::ir::instr::{BinOp, Imm, Instr, Operand};
use cayman::ir::interp::{ExecProfile, Interp, Memory, Value};
use cayman::ir::transform::{normalize, OptLevel, PassManager};
use cayman::ir::Module;
use cayman::merging::merge_solution;
use cayman::select::{run_selection, AccelModel, CaymanModel, DesignCache};
use cayman::{AnalyseOptions, Application, Edit, Framework, IncrementalApp, SelectOptions};
use cayman_store::designs_bits_equal;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Runaway guard: generated programs terminate by construction, so the
/// limit only exists to convert a harness bug into a clean failure.
const STEP_LIMIT: u64 = 50_000_000;

/// The first divergence found for a module, with enough context to debug it
/// once the caller attaches the kernel text.
#[derive(Debug)]
pub struct DiffFailure {
    /// Which differential surface diverged.
    pub stage: &'static str,
    /// What diverged, with both sides.
    pub detail: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

impl std::error::Error for DiffFailure {}

fn fail(stage: &'static str, detail: impl Into<String>) -> Result<(), DiffFailure> {
    Err(DiffFailure {
        stage,
        detail: detail.into(),
    })
}

fn values_bit_equal(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::F(x)), Some(Value::F(y))) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn cells_bit_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Runs every differential surface over `m`.
///
/// Returns `Ok(true)` when the module executed cleanly and all surfaces
/// were compared, `Ok(false)` when the module traps identically under both
/// interpreters (the remaining surfaces need a clean profile and are
/// skipped), and the first [`DiffFailure`] otherwise.
///
/// # Errors
///
/// Any observable divergence between two configurations that must agree.
pub fn check_module(m: &Module) -> Result<bool, DiffFailure> {
    if let Err(e) = m.verify() {
        fail("verify", format!("generated module does not verify: {e}"))?;
    }

    // Surface 1: decoded vs reference interpreter on the raw module.
    let mut dec = Interp::new(m).with_step_limit(STEP_LIMIT);
    let dec_out = dec.run(&[]);
    let mut refi = Interp::reference(m).with_step_limit(STEP_LIMIT);
    let ref_out = refi.run(&[]);
    match (&dec_out, &ref_out) {
        (Err(de), Err(re)) => {
            if de.to_string() != re.to_string() {
                fail(
                    "decoded-vs-reference",
                    format!("error messages diverge:\n  decoded:   {de}\n  reference: {re}"),
                )?;
            }
            // Identical trap on both engines: nothing further to compare —
            // the pipeline (rightly) refuses trapping programs.
            return Ok(false);
        }
        (Ok(_), Err(re)) => fail(
            "decoded-vs-reference",
            format!("decoded runs clean but reference traps: {re}"),
        )?,
        (Err(de), Ok(_)) => fail(
            "decoded-vs-reference",
            format!("reference runs clean but decoded traps: {de}"),
        )?,
        (Ok(_), Ok(_)) => {}
    }
    let (dp, rp) = (dec_out.unwrap(), ref_out.unwrap());
    if dp.block_counts != rp.block_counts {
        fail("decoded-vs-reference", "dynamic block counts diverge")?;
    }
    if dp.total_cycles != rp.total_cycles {
        fail(
            "decoded-vs-reference",
            format!("cycles diverge: {} vs {}", dp.total_cycles, rp.total_cycles),
        )?;
    }
    if !values_bit_equal(&dp.return_value, &rp.return_value) {
        fail(
            "decoded-vs-reference",
            format!(
                "return values diverge: {:?} vs {:?}",
                dp.return_value, rp.return_value
            ),
        )?;
    }
    if !cells_bit_equal(dec.memory.cells(), refi.memory.cells()) {
        fail("decoded-vs-reference", "final memory images diverge")?;
    }

    // Surface 2: -O0 vs -O1 observables.
    let mut opt_module = m.clone();
    match normalize(&mut opt_module, OptLevel::O1, true) {
        Ok(_) => {}
        Err(e) => fail("o0-vs-o1", format!("normalization broke the module: {e}"))?,
    }
    for func in &opt_module.functions {
        for pass in PassManager::standard().passes() {
            if pass.run(&opt_module.arrays, &mut func.clone()) {
                fail(
                    "o1-fixed-point",
                    format!("`{}` still changes normalized `{}`", pass.name(), func.name),
                )?;
            }
        }
    }
    let mut opt = Interp::new(&opt_module).with_step_limit(STEP_LIMIT);
    match opt.run(&[]) {
        Err(e) => fail(
            "o0-vs-o1",
            format!("-O0 runs clean but the -O1 module traps: {e}"),
        )?,
        Ok(op) => {
            if !values_bit_equal(&dp.return_value, &op.return_value) {
                fail(
                    "o0-vs-o1",
                    format!(
                        "return values diverge: {:?} vs {:?}",
                        dp.return_value, op.return_value
                    ),
                )?;
            }
            if !cells_bit_equal(dec.memory.cells(), opt.memory.cells()) {
                fail("o0-vs-o1", "final memory images diverge")?;
            }
        }
    }

    // Surface 3: -O1 vs -O2 staging, end to end.
    let fw = match Framework::from_module(m.clone()) {
        Ok(fw) => fw,
        Err(e) => {
            fail("select", format!("pipeline front-end failed: {e}"))?;
            unreachable!()
        }
    };
    let reference = fw.select(&SelectOptions::default());
    if reference.pareto.is_empty() {
        fail("select", "selection produced an empty Pareto front")?;
    }
    let fw2 = match Framework::from_module_with(m.clone(), &AnalyseOptions::o2()) {
        Ok(fw2) => fw2,
        Err(e) => {
            fail("o1-vs-o2", format!("-O2 pipeline front-end failed: {e}"))?;
            unreachable!()
        }
    };
    if fw.app.module.to_text() != fw2.app.module.to_text() {
        fail("o1-vs-o2", "-O2 executed module is not the -O1 body")?;
    }
    if fw.app.profile.block_counts != fw2.app.profile.block_counts {
        fail("o1-vs-o2", "region-profile block counts diverge")?;
    }
    if fw.app.profile.total_cycles != fw2.app.profile.total_cycles {
        fail(
            "o1-vs-o2",
            format!(
                "total cycles diverge: {} vs {}",
                fw.app.profile.total_cycles, fw2.app.profile.total_cycles
            ),
        )?;
    }
    if !values_bit_equal(&fw.app.exec.return_value, &fw2.app.exec.return_value) {
        fail(
            "o1-vs-o2",
            format!(
                "return values diverge: {:?} vs {:?}",
                fw.app.exec.return_value, fw2.app.exec.return_value
            ),
        )?;
    }
    let o2_sel = fw2.select(&SelectOptions::default());
    if o2_sel.pareto.is_empty() {
        fail("o1-vs-o2", "-O2 selection produced an empty Pareto front")?;
    }
    if fw.app.content_fps == fw2.app.content_fps {
        // No function's shadow changed anything: the analysis facts are the
        // same, so selection must land on the exact same front.
        if let Some(msg) = front_mismatch("noop-shadow", &o2_sel.pareto, &reference.pareto) {
            fail("o1-vs-o2", msg)?;
        }
    }
    Ok(true)
}

/// The value-only operand slots of an instruction — never pointers,
/// indices or conditions, so editing what flows through them cannot break
/// verification.
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

/// Every `(function, instruction, slot)` holding a float immediate in a
/// value-only slot.
fn float_sites(m: &Module) -> Vec<(usize, usize, usize)> {
    let mut sites = Vec::new();
    for (fi, func) in m.functions.iter().enumerate() {
        let mut probe = func.clone();
        for (ii, instr) in probe.instrs.iter_mut().enumerate() {
            for (oi, op) in value_slots(instr).into_iter().enumerate() {
                if matches!(op, Operand::Const(Imm::Float(_))) {
                    sites.push((fi, ii, oi));
                }
            }
        }
    }
    sites
}

/// Builds a single-instruction [`Edit`]: nudge one float immediate in one
/// value position (binary/unary operand, select arm, stored value, phi
/// incoming, call argument — `pick` chooses the site). Float immediates in
/// those slots never feed address computations or integer loop bounds, so
/// the edited module stays verifiable and terminates exactly like the
/// original — only the computed values (and possibly value-dependent
/// branches) change.
///
/// Returns `None` when the module has no float-immediate site to edit.
pub fn single_instr_edit(m: &Module, pick: u64) -> Option<Edit> {
    let sites = float_sites(m);
    if sites.is_empty() {
        return None;
    }
    let (fi, ii, oi) = sites[(pick % sites.len() as u64) as usize];
    let mut body = m.functions[fi].clone();
    if let Operand::Const(Imm::Float(v)) = *value_slots(&mut body.instrs[ii])[oi] {
        *value_slots(&mut body.instrs[ii])[oi] = Operand::float(v + 0.5);
    }
    Some(Edit::ReplaceFunction {
        func: cayman::ir::FuncId(fi as u32),
        body,
    })
}

/// Builds a single-instruction opcode [`Edit`]: swap `fadd` ↔ `fmul` in one
/// binary instruction with a float immediate operand — a site
/// [`single_instr_edit`] could nudge, so the same slot rule keeps the
/// module verifiable, and the interpreter's step limit bounds any loop a
/// changed value perturbs. Unlike a nudge, a swap changes the instruction's
/// latency, area and CPU cycles: a design-cache key that ignored opcodes
/// would serve stale designs after it.
///
/// Returns `None` when no such instruction exists.
pub fn opcode_swap_edit(m: &Module, pick: u64) -> Option<Edit> {
    let mut sites: Vec<(usize, usize)> = float_sites(m)
        .into_iter()
        .map(|(fi, ii, _)| (fi, ii))
        .filter(|&(fi, ii)| {
            matches!(
                m.functions[fi].instrs[ii],
                Instr::Binary {
                    op: BinOp::FAdd | BinOp::FMul,
                    ..
                }
            )
        })
        .collect();
    sites.dedup();
    if sites.is_empty() {
        return None;
    }
    let (fi, ii) = sites[(pick % sites.len() as u64) as usize];
    let mut body = m.functions[fi].clone();
    if let Instr::Binary { op, .. } = &mut body.instrs[ii] {
        *op = match op {
            BinOp::FAdd => BinOp::FMul,
            _ => BinOp::FAdd,
        };
    }
    Some(Edit::ReplaceFunction {
        func: cayman::ir::FuncId(fi as u32),
        body,
    })
}

/// Applies `edit` to a plain module the way [`IncrementalApp::apply`] would
/// (the reference side of the differential).
fn apply_to_module(m: &mut Module, edit: &Edit) {
    match edit {
        Edit::ReplaceFunction { func, body } => m.functions[func.index()] = body.clone(),
        _ => unreachable!("the differential only generates ReplaceFunction edits"),
    }
}

fn front_mismatch(cfg: &str, a: &[cayman::Solution], b: &[cayman::Solution]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!(
            "{cfg}: front size {} vs fresh {}",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.area.to_bits() != y.area.to_bits()
            || x.saved_seconds.to_bits() != y.saved_seconds.to_bits()
            || x.kernels.len() != y.kernels.len()
            || !x
                .kernels
                .iter()
                .zip(&y.kernels)
                .all(|(k, l)| k.node == l.node && k.design.blocks == l.design.blocks)
        {
            return Some(format!(
                "{cfg}: front entry {i} diverges: (area {}, saved {}, kernels {}) vs \
                 (area {}, saved {}, kernels {})",
                x.area,
                x.saved_seconds,
                x.kernels.len(),
                y.area,
                y.saved_seconds,
                y.kernels.len()
            ));
        }
    }
    None
}

/// Cayman's model, checking the design cache's contract as it goes: a
/// candidate key seen before must come with bit-identical designs. It opts
/// out of memoisation, so a selection asks it about every candidate, and
/// one instance spans every step of a differential — so a key that stays
/// put across an edit that changes the designs is caught even when the
/// stale design would never reach the front.
struct KeyCheckedModel {
    inner: CaymanModel,
    seen: Mutex<HashMap<CandidateKey, Vec<AcceleratorDesign>>>,
    /// The first candidate whose designs changed under an unchanged key.
    stale: Mutex<Option<String>>,
}

impl AccelModel for KeyCheckedModel {
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign> {
        let designs = self.inner.designs(inputs, cand);
        let key = RegionInputs::new(inputs, cand).key();
        let mut seen = self.seen.lock().expect("key check poisoned");
        match seen.get(&key) {
            Some(before) if !designs_bits_equal(before, &designs) => {
                self.stale
                    .lock()
                    .expect("key check poisoned")
                    .get_or_insert_with(|| {
                        format!(
                            "{} blocks {:?} kept its design-cache key but its designs changed",
                            inputs.func().name,
                            cand.blocks
                        )
                    });
            }
            Some(_) => {}
            None => {
                seen.insert(key, designs.clone());
            }
        }
        designs
    }
}

/// What [`check_incremental`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncCheck {
    /// `false` when the starting module traps under profiling (both paths
    /// then failed identically and no edit was checked).
    pub clean: bool,
    /// Fresh executions after an edit that the slice proof answered.
    pub proved: u64,
    /// Fresh executions after an edit: proved plus run.
    pub attempted: u64,
    /// Edited states the app query had not seen.
    pub fresh: u64,
    /// Fresh states whose selection the select table answered: every front
    /// key was unchanged, as after an edit that only moves values.
    pub select_hits: u64,
}

impl IncCheck {
    /// Adds `other`'s proof counts to these.
    pub fn add(&mut self, other: &IncCheck) {
        self.proved += other.proved;
        self.attempted += other.attempted;
        self.fresh += other.fresh;
        self.select_hits += other.select_hits;
    }
}

/// Differential surface 4: incremental re-analysis vs from-scratch.
///
/// Drives `edits` seeded single-instruction edits (interleaved with
/// occasional reverts, the salsa-style "change it back" path) through an
/// [`IncrementalApp`] and, after every step, re-analyses the edited module
/// from scratch. The incremental result must be **bit-identical** at every
/// step: the selection Pareto front (area/saved-seconds bits,
/// kernel node ids and block sets), the execution profile (block counts,
/// total cycles and return-value bits), the analyses the store's
/// queries reuse (prints, selection fingerprints, trip-count bits), and the
/// merged best solution's area accounting. A step whose execution the slice proof
/// answered is also run through the interpreter, which must produce the
/// proved profile. Across all steps, every candidate whose design-cache key
/// repeats must get bit-identical designs from the model.
///
/// Returns `clean: false` when the starting module traps under profiling
/// (both paths must then fail identically), the proof's counts, and how
/// many fresh states the select table answered — each of those fronts is
/// checked against the fresh pipeline like any other.
///
/// # Errors
///
/// Any divergence between the incremental and from-scratch pipelines.
pub fn check_incremental(
    m: &Module,
    memory: Option<Memory>,
    seed: u64,
    edits: usize,
) -> Result<IncCheck, DiffFailure> {
    let mut rng = cayman_testkit::Rng::new(seed ^ 0x1CAE);
    let opts = AnalyseOptions::default();
    let sel_opts = SelectOptions::default();
    let mut inc = IncrementalApp::new(m.clone(), memory.clone(), opts.clone());
    let mut reference = m.clone();
    let checked = KeyCheckedModel {
        inner: CaymanModel(sel_opts.model.clone()),
        seen: Mutex::default(),
        stale: Mutex::default(),
    };

    let mut tally = IncCheck {
        clean: true,
        ..IncCheck::default()
    };
    for step in 0..=edits {
        let before = *inc.stats();
        if step > 0 {
            // Revert ~every fourth edit to the original body of a random
            // function (the cache-warm green path); otherwise nudge a float
            // immediate or swap an `fadd`/`fmul` somewhere.
            let edit = if rng.range_usize(0, 3) == 0 {
                let fi = rng.range_usize(0, m.functions.len());
                Edit::ReplaceFunction {
                    func: cayman::ir::FuncId(fi as u32),
                    body: m.functions[fi].clone(),
                }
            } else {
                let pick = rng.next_u64();
                let swap = rng.bool().then(|| opcode_swap_edit(&reference, pick));
                match swap
                    .flatten()
                    .or_else(|| single_instr_edit(&reference, pick))
                {
                    Some(e) => e,
                    // No float immediate anywhere: re-apply a function's own
                    // body (a content no-op that must still hit every cache).
                    None => Edit::ReplaceFunction {
                        func: cayman::ir::FuncId(0),
                        body: reference.functions[0].clone(),
                    },
                }
            };
            apply_to_module(&mut reference, &edit);
            if let Err(e) = inc.apply(edit) {
                fail("incremental", format!("step {step}: apply failed: {e}"))?;
            }
        }

        let fresh = Application::analyse_with(reference.clone(), memory.clone(), &opts);
        let inc_sel = inc.select(&sel_opts);
        let fresh_app = match (fresh, &inc_sel) {
            (Err(fe), Err(ie)) => {
                if fe.to_string() != ie.to_string() {
                    fail(
                        "incremental",
                        format!(
                            "step {step}: error messages diverge:\n  fresh:       {fe}\n  \
                             incremental: {ie}"
                        ),
                    )?;
                }
                return Ok(IncCheck {
                    clean: false,
                    ..tally
                });
            }
            (Ok(_), Err(ie)) => {
                fail(
                    "incremental",
                    format!("step {step}: fresh analyses but incremental fails: {ie}"),
                )?;
                unreachable!()
            }
            (Err(fe), Ok(_)) => {
                fail(
                    "incremental",
                    format!("step {step}: incremental analyses but fresh fails: {fe}"),
                )?;
                unreachable!()
            }
            (Ok(app), Ok(_)) => app,
        };
        let inc_sel = inc_sel.unwrap();
        let inc_app = inc.analyse().expect("selection already analysed");

        if let Some(msg) = exec_mismatch(&fresh_app.exec, &inc_app.exec) {
            fail("incremental", format!("step {step}: {msg}"))?;
        }
        if let Some(msg) = analysis_mismatch(&fresh_app, &inc_app) {
            fail("incremental", format!("step {step}: {msg}"))?;
        }
        let after = *inc.stats();
        if step > 0 {
            let proved = after.proved - before.proved;
            tally.proved += proved;
            tally.attempted += proved + after.exec.misses - before.exec.misses;
            if after.app.misses > before.app.misses {
                tally.fresh += 1;
                tally.select_hits += after.select.hits - before.select.hits;
            }
            if proved > 0 {
                // The proof answered without a run: make the run.
                let mut interp = Interp::new(&inc_app.module);
                if let Some(mem) = &memory {
                    interp.memory = mem.clone();
                }
                let ran = interp.run(&[]).map_err(|e| DiffFailure {
                    stage: "incremental",
                    detail: format!("step {step}: a proved module fails to run: {e}"),
                })?;
                if let Some(msg) = exec_mismatch(&ran, &inc_app.exec) {
                    fail(
                        "incremental",
                        format!("step {step}: proved profile is wrong: {msg}"),
                    )?;
                }
            }
        }

        let fresh_inputs = fresh_app.inputs();
        let fresh_sel = run_selection(
            &fresh_app.module,
            &fresh_app.wpst,
            &fresh_app.profile,
            &fresh_inputs,
            &sel_opts,
            &checked,
            &DesignCache::new(),
            None,
        );
        if let Some(msg) = checked.stale.lock().expect("key check poisoned").take() {
            fail("incremental", format!("step {step}: {msg}"))?;
        }
        if let Some(msg) =
            front_mismatch(&format!("step {step}"), &inc_sel.pareto, &fresh_sel.pareto)
        {
            fail("incremental", msg)?;
        }

        let fresh_merge = merge_solution(&fresh_app.module, fresh_sel.best_under(f64::INFINITY));
        let inc_merge = merge_solution(&inc_app.module, inc_sel.best_under(f64::INFINITY));
        if fresh_merge.area_before.to_bits() != inc_merge.area_before.to_bits()
            || fresh_merge.area_after.to_bits() != inc_merge.area_after.to_bits()
            || fresh_merge.merges != inc_merge.merges
            || fresh_merge.reusable.len() != inc_merge.reusable.len()
            || fresh_merge.units.len() != inc_merge.units.len()
        {
            fail(
                "incremental",
                format!(
                    "step {step}: merge accounting diverges: \
                     (before {}, after {}, merges {}, reusable {}, units {}) vs \
                     (before {}, after {}, merges {}, reusable {}, units {})",
                    inc_merge.area_before,
                    inc_merge.area_after,
                    inc_merge.merges,
                    inc_merge.reusable.len(),
                    inc_merge.units.len(),
                    fresh_merge.area_before,
                    fresh_merge.area_after,
                    fresh_merge.merges,
                    fresh_merge.reusable.len(),
                    fresh_merge.units.len()
                ),
            )?;
        }
    }
    Ok(tally)
}

/// The first way the execution profile `got` differs from `want`,
/// described with both sides.
fn exec_mismatch(want: &ExecProfile, got: &ExecProfile) -> Option<String> {
    if want.block_counts != got.block_counts {
        Some("block counts diverge".into())
    } else if want.total_cycles != got.total_cycles {
        Some(format!(
            "total cycles diverge: {} vs {}",
            want.total_cycles, got.total_cycles
        ))
    } else if !values_bit_equal(&want.return_value, &got.return_value) {
        Some(format!(
            "return values diverge: {:?} vs {:?}",
            want.return_value, got.return_value
        ))
    } else {
        None
    }
}

/// The first way the analyses the incremental store reused across edits
/// differ from a fresh application's: the prints (structure and dataflow
/// halves), the selection fingerprints, or the trip counts by bits.
fn analysis_mismatch(want: &Application, got: &Application) -> Option<String> {
    if want.module.functions.len() != got.module.functions.len() {
        return Some("function counts diverge".into());
    }
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (f, func) in want.module.functions.iter().enumerate() {
        let name = &func.name;
        if want.prints[f] != got.prints[f] {
            return Some(format!("`{name}`: prints diverge"));
        }
        if want.selection_fps[f] != got.selection_fps[f] {
            return Some(format!("`{name}`: selection fingerprints diverge"));
        }
        if bits(&want.trips[f]) != bits(&got.trips[f]) {
            return Some(format!(
                "`{name}`: trip counts diverge: {:?} vs {:?}",
                want.trips[f], got.trips[f]
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_testkit::program::arbitrary_module;
    use cayman_testkit::Rng;

    #[test]
    fn a_known_benchmark_passes_all_surfaces() {
        let w = cayman::workloads::by_name("atax").expect("atax exists");
        assert!(check_module(&w.module).expect("no divergence"));
    }

    #[test]
    fn incremental_matches_fresh_on_a_benchmark_and_generated_programs() {
        let w = cayman::workloads::by_name("bicg").expect("bicg exists");
        let bicg = check_incremental(&w.module, Some(w.memory()), 7, 3).expect("no divergence");
        assert!(bicg.clean, "bicg profiles cleanly");
        for seed in [3u64, 11] {
            let m = arbitrary_module(&mut Rng::new(seed));
            check_incremental(&m, None, seed, 3).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_programs_pass_and_verdicts_are_deterministic() {
        for seed in [1u64, 7, 42] {
            let m = arbitrary_module(&mut Rng::new(seed));
            let a = check_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let b = check_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(a, b, "verdict changed between identical runs");
        }
    }
}
