//! # cayman-hls
//!
//! The accelerator model of the Cayman reproduction (paper §III-C): a
//! characterised component library, an interface-aware HLS-style scheduler,
//! a loop-pipelining model, and configuration generation with performance and
//! area estimation.
//!
//! * [`oplib`] — per-operation latency/area (the OpenROAD/Nangate45
//!   characterisation substitute) and global constants (500 MHz target,
//!   CVA6 tile area),
//! * [`interface`] — the *coupled* / *decoupled* / *scratchpad* data-access
//!   interfaces and [`interface::ModelOptions`],
//! * [`schedule`] — ASAP list scheduling with interface latencies, memory
//!   ordering and port constraints,
//! * [`pipeline`] — initiation-interval computation (recMII/resMII) and
//!   pipelined-loop latency,
//! * [`inputs`] — the per-function analysis bundle, [`inputs::Candidate`]
//!   and the [`inputs::RegionInputs`] view whose read set keys the design
//!   cache,
//! * [`design`] — configuration generation and estimation producing
//!   [`design::AcceleratorDesign`]s (the `accel(v, R)` of Algorithm 1),
//! * [`rtl`] — structural Verilog emission for configured accelerators
//!   (the "synthesize into complete hardware" back-end).
//!
//! ## Example
//!
//! Estimating a streaming loop under default options:
//!
//! ```
//! use cayman_ir::builder::ModuleBuilder;
//! use cayman_ir::interp::Interp;
//! use cayman_ir::{FuncId, Type};
//! use cayman_analysis::{ctx::FuncCtx, scev::Scev, access::AccessAnalysis};
//! use cayman_analysis::memdep::analyse_loop_deps;
//! use cayman_hls::inputs::{Candidate, FuncInputs, FuncPrints};
//! use cayman_hls::interface::ModelOptions;
//! use cayman_hls::design::generate_designs;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("app");
//! let x = mb.array("x", Type::F64, &[128]);
//! mb.function("main", &[], None, |fb| {
//!     fb.counted_loop(0, 128, 1, |fb, i| {
//!         let v = fb.load_idx(x, &[i]);
//!         let w = fb.fmul(v, fb.fconst(2.0));
//!         fb.store_idx(x, &[i], w);
//!     });
//!     fb.ret(None);
//! });
//! let module = mb.finish();
//! module.verify()?;
//! let exec = Interp::new(&module).run(&[])?;
//!
//! let f = module.function(FuncId(0));
//! let ctx = FuncCtx::compute(f);
//! let mut scev = Scev::new(f, &ctx);
//! let accesses = AccessAnalysis::run(&module, f, &ctx, &mut scev);
//! let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
//! let prints = FuncPrints::compute(&module, f, &ctx, &accesses, &deps);
//! let inputs = FuncInputs {
//!     module: &module,
//!     func_id: FuncId(0),
//!     ctx: &ctx,
//!     accesses: &accesses,
//!     deps: &deps,
//!     trips: &[128.0],
//!     block_counts: &exec.block_counts[0],
//!     prints: &prints,
//! };
//! let lp = ctx.forest.ids().next().expect("one loop");
//! let blocks = ctx.forest.get(lp).blocks.clone();
//! let cand = Candidate {
//!     func: FuncId(0),
//!     blocks,
//!     entries: 1,
//!     cpu_cycles: exec.total_cycles,
//!     is_bb: false,
//! };
//! let designs = generate_designs(&inputs, &cand, &ModelOptions::default());
//! assert!(!designs.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod design;
pub mod inputs;
pub mod interface;
pub mod oplib;
pub mod pipeline;
pub mod rtl;
pub mod schedule;

pub use design::{generate_designs, AcceleratorDesign};
pub use inputs::{Candidate, FuncInputs, FuncPrints, RegionInputs};
pub use interface::{InterfaceKind, ModelOptions};
pub use oplib::{ACCEL_FREQ_HZ, CVA6_TILE_AREA};
