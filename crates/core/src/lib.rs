//! # cayman
//!
//! End-to-end reproduction of **"Cayman: Custom Accelerator Generation with
//! Control Flow and Data Access Optimization"** (DAC 2025).
//!
//! Cayman ingests whole applications, automatically selects program regions
//! for hardware acceleration, and configures accelerators with optimised
//! control flow (loop unrolling + pipelining) and specialised
//! processor–accelerator data-access interfaces (*coupled* / *decoupled* /
//! *scratchpad*), then merges accelerators into reusable, reconfigurable
//! units to save area.
//!
//! This facade crate wires together the substrate crates:
//!
//! | crate | role |
//! |---|---|
//! | `cayman-ir` | typed SSA IR, builder, interpreter/profiler |
//! | `cayman-analysis` | SESE regions, wPST, profiling, SCEV, stream/footprint, mem deps |
//! | `cayman-hls` | accelerator model: scheduling, pipelining, interfaces, estimation |
//! | `cayman-select` | Algorithm 1 — DP candidate selection with Pareto + α-filter |
//! | `cayman-merge` | accelerator merging (§III-E) |
//! | `cayman-baselines` | NOVIA and QsCores models |
//! | `cayman-workloads` | the 28 evaluated benchmark applications |
//!
//! ## Quickstart
//!
//! ```
//! use cayman::{Framework, SelectOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = cayman::workloads::by_name("bicg").expect("bicg exists");
//! let fw = Framework::from_workload(&workload)?;
//! let selection = fw.select(&SelectOptions::default());
//! let report = fw.report(&selection, 0.25); // 25% CVA6-tile budget
//! assert!(report.speedup > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod framework;
pub mod inc;

use std::error::Error;
use std::fmt;

pub use app::{AnalyseOptions, Application};
pub use cayman_ir::transform::OptLevel;
pub use framework::{BudgetReport, Framework};
pub use inc::{Edit, IncStats, IncrementalApp};

// Re-export the sub-crates under stable names so downstream users need only
// one dependency.
pub use cayman_analysis as analysis;
pub use cayman_baselines as baselines;
pub use cayman_hls as hls;
pub use cayman_ir as ir;
pub use cayman_merge as merging;
pub use cayman_select as select;
pub use cayman_workloads as workloads;

// The most commonly used items at the top level.
pub use cayman_hls::interface::ModelOptions;
pub use cayman_hls::CVA6_TILE_AREA;
pub use cayman_select::{
    DesignCache, DesignStoreBackend, SelectOptions, SelectStats, SelectionResult, Solution,
};

/// Top-level framework error.
#[derive(Debug)]
pub enum CaymanError {
    /// The textual input failed to parse.
    Parse(cayman_ir::parse::ParseError),
    /// The input module failed structural verification.
    Verify(cayman_ir::verify::VerifyError),
    /// Profiling execution failed.
    Interp(cayman_ir::interp::InterpError),
}

impl fmt::Display for CaymanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaymanError::Parse(e) => write!(f, "parsing failed: {e}"),
            CaymanError::Verify(e) => write!(f, "verification failed: {e}"),
            CaymanError::Interp(e) => write!(f, "profiling execution failed: {e}"),
        }
    }
}

impl Error for CaymanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CaymanError::Parse(e) => Some(e),
            CaymanError::Verify(e) => Some(e),
            CaymanError::Interp(e) => Some(e),
        }
    }
}

impl From<cayman_ir::parse::ParseError> for CaymanError {
    fn from(e: cayman_ir::parse::ParseError) -> Self {
        CaymanError::Parse(e)
    }
}

impl From<cayman_ir::verify::VerifyError> for CaymanError {
    fn from(e: cayman_ir::verify::VerifyError) -> Self {
        CaymanError::Verify(e)
    }
}

impl From<cayman_ir::interp::InterpError> for CaymanError {
    fn from(e: cayman_ir::interp::InterpError) -> Self {
        CaymanError::Interp(e)
    }
}
