//! # cayman-analysis
//!
//! Program representation, profiling and data-access analysis for the Cayman
//! reproduction (paper §III-B):
//!
//! * [`ctx`] — per-function CFG/dominator/loop bundle,
//! * [`regions`] — SESE region discovery (the PST slice of one function),
//! * [`wpst`] — the whole-application program structure tree,
//! * [`profile`] — region-level execution counts and durations from an
//!   interpreter run,
//! * [`scev`] — affine scalar evolution over loop induction variables,
//! * [`access`] — *stream* access-pattern classification and footprints,
//! * [`banking`] — bank-conflict legality and stencil-window detection for
//!   partitioned memory interfaces,
//! * [`memdep`] — loop-carried dependence analysis (memory and scalar
//!   recurrences).
//!
//! ## Example
//!
//! ```
//! use cayman_ir::builder::ModuleBuilder;
//! use cayman_ir::interp::Interp;
//! use cayman_ir::Type;
//! use cayman_analysis::wpst::Wpst;
//! use cayman_analysis::profile::Profile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("app");
//! let x = mb.array("x", Type::F64, &[32]);
//! mb.function("main", &[], None, |fb| {
//!     fb.counted_loop(0, 32, 1, |fb, i| {
//!         let v = fb.load_idx(x, &[i]);
//!         let w = fb.fadd(v, fb.fconst(1.0));
//!         fb.store_idx(x, &[i], w);
//!     });
//!     fb.ret(None);
//! });
//! let module = mb.finish();
//! module.verify()?;
//!
//! let wpst = Wpst::build(&module);
//! let exec = Interp::new(&module).run(&[])?;
//! let profile = Profile::aggregate(&module, &wpst, &exec);
//! assert!(profile.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod banking;
pub mod ctx;
pub mod memdep;
pub mod profile;
pub mod regions;
pub mod scev;
pub mod wpst;

pub use access::{AccessAnalysis, AccessInfo};
pub use banking::{bank_conflict_free, max_conflict_free_unroll, stencil_window, StencilWindow};
pub use ctx::FuncCtx;
pub use memdep::{analyse_loop_deps, LoopDeps, MemRecurrence, ScalarRecurrence};
pub use profile::{Profile, RegionProfile};
pub use regions::{Region, RegionId, RegionKind, RegionTree};
pub use scev::{LinExpr, Scev};
pub use wpst::{Wpst, WpstKind, WpstNode, WpstNodeId};
