//! The analysed application: one-stop ownership of everything the selection
//! and merging stages consume.

use crate::inc::QueryStore;
use crate::CaymanError;
use cayman_analysis::access::AccessAnalysis;
use cayman_analysis::memdep::LoopDeps;
use cayman_analysis::profile::Profile;
use cayman_analysis::wpst::Wpst;
use cayman_hls::inputs::FuncInputs;
use cayman_ir::interp::{ExecProfile, Memory};
use cayman_ir::transform::{OptLevel, PipelineStats};
use cayman_ir::Module;
use std::sync::Arc;

/// Options for [`Application::analyse_with`]: how the explicit pipeline
/// stages (verify → normalize → profile → analyse) are run.
#[derive(Debug, Clone, Default)]
pub struct AnalyseOptions {
    /// IR normalization level applied after verification and before
    /// profiling (default `O1`).
    pub opt_level: OptLevel,
    /// Re-run the verifier after every changing normalization pass
    /// (differential/debug runs; off by default).
    pub verify_each_pass: bool,
}

impl AnalyseOptions {
    /// Options with normalization disabled (`-O0`).
    pub fn o0() -> Self {
        AnalyseOptions {
            opt_level: OptLevel::O0,
            ..AnalyseOptions::default()
        }
    }

    /// Options with the analysis-side `-O2` canonicalization enabled: the
    /// *executed* module is still the `-O1` body (profiles and observable
    /// behavior are bit-identical to `-O1`), but access/dependence analysis
    /// runs over an identity-preserving strength-reduce + LICM shadow of
    /// each function, so SCEV proves strides the raw body hides.
    pub fn o2() -> Self {
        AnalyseOptions {
            opt_level: OptLevel::O2,
            ..AnalyseOptions::default()
        }
    }
}

/// A verified, profiled and analysed application — the paper's "profiling
/// and analysis results R" plus the wPST, ready for Algorithm 1.
pub struct Application {
    /// The program (after normalization — analyses refer to this module,
    /// not the pre-normalization input).
    pub module: Module,
    /// Whole-application program structure tree.
    pub wpst: Wpst,
    /// Region-level profile.
    pub profile: Profile,
    /// Raw execution profile (per-block counts, total cycles).
    pub exec: ExecProfile,
    /// Per-function memory-access analysis.
    pub accesses: Vec<AccessAnalysis>,
    /// Per-function loop-carried dependence analysis.
    pub deps: Vec<Vec<LoopDeps>>,
    /// Per-function loop trip counts (static preferred, profiled fallback).
    pub trips: Vec<Vec<f64>>,
    /// Which interpreter engine produced the profile (`"decoded"` unless the
    /// module fell back to the reference walker).
    pub profiling_engine: &'static str,
    /// Per-pass counters and timings from the normalization stage (empty at
    /// `-O0`).
    pub normalize_stats: PipelineStats,
    /// Per-function content fingerprints of the *normalized* functions —
    /// the content keys the incremental store and the selection-front/design
    /// caches are addressed by. At `-O2` a function whose analysis shadow
    /// differs from its executed body carries a mix of both fingerprints,
    /// so cached designs/fronts never conflate the two levels' facts.
    pub content_fps: Vec<u64>,
}

impl std::fmt::Debug for Application {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Application")
            .field("module", &self.module.name)
            .field("functions", &self.module.functions.len())
            .field("wpst_regions", &self.wpst.region_count())
            .field("total_cycles", &self.profile.total_cycles)
            .finish()
    }
}

impl Application {
    /// Verifies, normalizes (default `-O1`), profiles (with zeroed memory)
    /// and analyses a module.
    ///
    /// # Errors
    ///
    /// Fails when verification or interpretation fails.
    pub fn analyse(module: Module) -> Result<Self, CaymanError> {
        Self::analyse_with(module, None, &AnalyseOptions::default())
    }

    /// Like [`Application::analyse`] but with a caller-provided input memory
    /// image (benchmark inputs).
    ///
    /// # Errors
    ///
    /// Fails when verification or interpretation fails.
    pub fn analyse_with_memory(
        module: Module,
        memory: Option<Memory>,
    ) -> Result<Self, CaymanError> {
        Self::analyse_with(module, memory, &AnalyseOptions::default())
    }

    /// The full staged pipeline, explicitly:
    ///
    /// 1. **verify** — reject malformed modules up front;
    /// 2. **normalize** — run the [`cayman_ir::transform`] pipeline at
    ///    `opts.opt_level` (observable behavior is preserved, so profiling
    ///    results describe the same program);
    /// 3. **profile** — execute under the decoded interpreter (which decodes
    ///    the *normalized* module) against `memory` or a zeroed image;
    /// 4. **analyse** — build the wPST, region profile, access/dependence
    ///    analyses and trip counts consumed by Algorithm 1.
    ///
    /// The stages are implemented as the keyed queries of
    /// [`crate::inc`] — this batch entry assembles over a transient
    /// cold query store (every query misses exactly once), while
    /// [`crate::inc::IncrementalApp`] keeps a store alive across edits so
    /// repeated analyses only re-execute the queries whose content keys
    /// changed. Both paths produce bit-identical applications.
    ///
    /// # Errors
    ///
    /// Fails when verification (including inter-pass verification with
    /// `opts.verify_each_pass`) or interpretation fails.
    pub fn analyse_with(
        module: Module,
        memory: Option<Memory>,
        opts: &AnalyseOptions,
    ) -> Result<Self, CaymanError> {
        let mut store = QueryStore::new();
        let raw_fps: Vec<u64> = module
            .functions
            .iter()
            .map(cayman_ir::fingerprint_function)
            .collect();
        let memory_fp = memory
            .as_ref()
            .map(cayman_ir::fingerprint_memory)
            .unwrap_or(0);
        let app = crate::inc::assemble(
            &mut store,
            &module,
            memory.as_ref(),
            memory_fp,
            opts,
            &raw_fps,
        );
        store.publish();
        let (_, app) = app?;
        // The transient store holds the only other Arc; dropping it makes
        // the application uniquely owned again.
        drop(store);
        Ok(Arc::try_unwrap(app).expect("transient store dropped"))
    }

    /// Per-function model inputs (borrowing this application — trip counts
    /// and block counts are borrowed slices, so building inputs allocates
    /// only the outer vector).
    pub fn inputs(&self) -> Vec<FuncInputs<'_>> {
        self.module
            .function_ids()
            .map(|f| FuncInputs {
                module: &self.module,
                func_id: f,
                ctx: &self.wpst.func_ctxs[f.index()],
                accesses: &self.accesses[f.index()],
                deps: &self.deps[f.index()],
                trips: &self.trips[f.index()],
                block_counts: &self.profile.block_counts[f.index()],
                content_fp: self.content_fps[f.index()],
            })
            .collect()
    }

    /// Total profiled CPU cycles (`T_all · F_cpu`).
    pub fn total_cycles(&self) -> u64 {
        self.profile.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::Type;

    #[test]
    fn analyse_builds_everything() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[16]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 16, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                fb.store_idx(x, &[i], v);
            });
            fb.ret(None);
        });
        let app = Application::analyse(mb.finish()).expect("analyses");
        assert_eq!(app.accesses.len(), 1);
        assert_eq!(app.trips[0], vec![16.0]);
        assert!(app.total_cycles() > 0);
        assert_eq!(app.inputs().len(), 1);
        // Verified modules always profile under the decoded engine.
        assert_eq!(app.profiling_engine, "decoded");
    }

    #[test]
    fn staged_analyse_normalizes_at_o1_but_not_o0() {
        // A module with a constant-foldable chain and a duplicate address
        // computation: -O1 must shrink it, -O0 must profile it verbatim, and
        // both must agree on observable results.
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[16]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let f = fb.counted_loop_carry(0, 16, 1, &[(Type::F64, init)], |fb, i, c| {
                let a = fb.load_idx(x, &[i]);
                let b = fb.load_idx(x, &[i]); // duplicate gep for GVN
                let k = fb.fmul(fb.fconst(2.0), fb.fconst(1.5)); // folds to 3.0
                let t = fb.fmul(a, k);
                let u = fb.fadd(t, b);
                vec![fb.fadd(c[0], u)]
            });
            fb.ret(Some(f[0]));
        });
        let module = mb.finish();

        let raw = Application::analyse_with(module.clone(), None, &AnalyseOptions::o0())
            .expect("analyses at O0");
        let opts = AnalyseOptions {
            verify_each_pass: true,
            ..AnalyseOptions::default()
        };
        let opt = Application::analyse_with(module.clone(), None, &opts).expect("analyses at O1");

        // O0 leaves the module exactly as built; O1 shrinks it.
        assert_eq!(raw.normalize_stats.iterations, 0);
        assert_eq!(raw.module.to_text(), module.to_text());
        assert!(opt.normalize_stats.total_changes() > 0);
        assert!(opt.normalize_stats.verify_runs > 0);
        let count = |m: &Module| m.functions.iter().map(|f| f.instr_count()).sum::<usize>();
        assert!(
            count(&opt.module) < count(&raw.module),
            "O1 should drop instructions: {} vs {}",
            count(&opt.module),
            count(&raw.module)
        );

        // Same observable outcome either way (zeroed memory → 0.0).
        assert_eq!(raw.exec.return_value, opt.exec.return_value);
        // Analyses cover the same structure.
        assert_eq!(raw.trips[0], opt.trips[0]);
        assert_eq!(raw.accesses.len(), opt.accesses.len());
    }

    #[test]
    fn broken_module_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("main", &[], None, |fb| {
            fb.new_block("orphan");
            fb.ret(None);
        });
        assert!(Application::analyse(mb.finish()).is_err());
    }
}
