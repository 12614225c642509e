//! # cayman-ir
//!
//! A compact, typed, SSA-form compiler intermediate representation that plays
//! the role LLVM IR plays in the Cayman paper (DAC 2025).
//!
//! The Cayman framework consumes *applications*, not hand-extracted kernels,
//! so it needs a real IR with functions, basic blocks, branches, phis and
//! explicit memory operations. This crate provides:
//!
//! * the IR itself ([`Module`], [`Function`], [`Block`], [`Instr`]) with a
//!   GEP-style address instruction over globally declared arrays,
//! * a [`builder`] API for constructing programs,
//! * a structural [`verify`]er,
//! * a textual [`mod@print`]er and the inverse [`parse`]r (modules
//!   round-trip through text),
//! * CFG analyses: predecessors/successors ([`mod@cfg`]), dominators and
//!   post-dominators ([`dom`]), natural loops ([`loops`]),
//! * an [`interp`]reter with a CVA6-like in-order CPU cycle model
//!   ([`cpu_model`]) used as the profiling substrate (the paper instruments
//!   LLVM bitcode and runs natively; we interpret and count cycles instead).
//! * a forward taint [`mod@slice`] that proves an edit leaves a run's block
//!   counts and return value unchanged, so the profile need not be re-run.
//!
//! ## Example
//!
//! ```
//! use cayman_ir::builder::ModuleBuilder;
//! use cayman_ir::types::Type;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let x = mb.array("x", Type::F64, &[16]);
//! let y = mb.array("y", Type::F64, &[16]);
//! let f = mb.function("scale", &[], None, |fb| {
//!     fb.counted_loop(0, 16, 1, |fb, i| {
//!         let xv = fb.load_idx(x, &[i]);
//!         let two = fb.fconst(2.0);
//!         let v = fb.fmul(xv, two);
//!         fb.store_idx(y, &[i], v);
//!     });
//!     fb.ret(None);
//! });
//! let module = mb.finish();
//! module.verify().expect("well-formed");
//! assert_eq!(module.function(f).name, "scale");
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod cpu_model;
mod decode;
pub mod dom;
pub mod fingerprint;
pub mod instr;
pub mod interp;
pub mod loops;
pub mod module;
pub mod parse;
pub mod print;
pub mod slice;
pub mod transform;
pub mod types;
pub mod verify;

pub use decode::generic_dispatch_mix;
pub use fingerprint::{
    fingerprint_arrays, fingerprint_block, fingerprint_function, fingerprint_function_pair,
    fingerprint_memory, fingerprint_module, fingerprint_module_from_parts, Fingerprinter,
    FunctionFps,
};
pub use instr::{BinOp, CmpPred, Imm, Instr, Operand, Terminator, UnaryOp};
pub use interp::{decode_function, DecodedFunction};
pub use module::{
    ArrayDecl, ArrayId, Block, BlockId, FuncId, Function, InstrId, IrView, Module, ValueId,
};
pub use types::Type;
