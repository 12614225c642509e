//! # cayman-workloads
//!
//! The 28 benchmark applications of the paper's evaluation (§IV-A), written
//! against the `cayman-ir` builder:
//!
//! * [`polybench`] — 16 PolyBench kernels (3mm … floyd-warshall),
//! * [`machsuite`] — fft, md, spmv, nw,
//! * [`mediabench`] — cjpeg, epic,
//! * [`coremark`] — cjpeg-rose, zip-test, parser, nnet-test, linear-alg,
//!   loops-all-mid-10k-sp.
//!
//! The PolyBench/MachSuite kernels follow their reference semantics at
//! reduced problem sizes (the interpreter is our profiling substrate; what
//! selection needs is the hotspot *structure*, which is size-independent).
//! The MediaBench/CoreMark-Pro programs are synthetic-but-representative
//! re-creations preserving each benchmark's control-flow and memory-access
//! character (documented per builder); the originals are not available as IR.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = cayman_workloads::by_name("atax").expect("atax exists");
//! let profile = w.run()?;
//! assert!(profile.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod coremark;
pub mod corpus;
pub mod data;
pub mod machsuite;
pub mod mediabench;
pub mod polybench;

use cayman_ir::interp::{ExecProfile, Interp, InterpError, Memory};
use cayman_ir::{ArrayId, Module};
use data::Fill;
use std::fmt;

/// Benchmark suite provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// PolyBench/C numerical kernels.
    PolyBench,
    /// MachSuite accelerator benchmarks.
    MachSuite,
    /// MediaBench multimedia applications.
    MediaBench,
    /// EEMBC CoreMark-Pro workloads.
    CoreMarkPro,
    /// Image-processing stencil kernels (text corpus, `kernels/stencil/`).
    Stencil,
    /// Control-heavy CGRA-style kernels (text corpus, `kernels/control/`).
    Control,
    /// Generator-derived structured programs (text corpus, `kernels/gen/`).
    Generated,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::PolyBench => "PolyB",
            Suite::MachSuite => "MachS",
            Suite::MediaBench => "Media",
            Suite::CoreMarkPro => "CoreM",
            Suite::Stencil => "Stenc",
            Suite::Control => "Contr",
            Suite::Generated => "Gener",
        };
        f.write_str(s)
    }
}

/// One benchmark application: a verified module plus input-data specs.
pub struct Workload {
    /// Suite provenance.
    pub suite: Suite,
    /// Benchmark name as reported in Table II.
    pub name: &'static str,
    /// The application.
    pub module: Module,
    /// Input fills, applied in order; unlisted arrays stay zeroed.
    pub fills: Vec<(ArrayId, Fill)>,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("suite", &self.suite)
            .field("name", &self.name)
            .field("functions", &self.module.functions.len())
            .finish()
    }
}

impl Workload {
    /// A memory image with all inputs filled (deterministic).
    pub fn memory(&self) -> Memory {
        let mut mem = Memory::for_module(&self.module);
        for &(a, fill) in &self.fills {
            data::apply(&self.module, &mut mem, a, fill, 0xCA_1321);
        }
        mem
    }

    /// Runs the workload under the profiling interpreter.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures (which indicate a kernel bug — the
    /// suite's tests execute every workload).
    pub fn run(&self) -> Result<ExecProfile, InterpError> {
        let mut interp = Interp::new(&self.module);
        interp.memory = self.memory();
        interp.run(&[])
    }
}

/// All 28 benchmarks, in Table II order.
pub fn all() -> Vec<Workload> {
    let mut v = polybench::all();
    v.extend(machsuite::all());
    v.extend(mediabench::all());
    v.extend(coremark::all());
    v
}

/// The full registry: the 28 builder benchmarks followed by the text-fixture
/// [`corpus`] (100+ kernels under `kernels/`).
pub fn full() -> Vec<Workload> {
    let mut v = all();
    v.extend(corpus::corpus());
    v
}

/// Looks a workload up by name, searching the Table II benchmarks first and
/// then the text corpus.
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .find(|w| w.name == name)
        .or_else(|| corpus::corpus().into_iter().find(|w| w.name == name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_28_benchmarks() {
        let ws = all();
        assert_eq!(ws.len(), 28);
        assert_eq!(
            ws.iter().filter(|w| w.suite == Suite::PolyBench).count(),
            16
        );
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::MachSuite).count(), 4);
        assert_eq!(
            ws.iter().filter(|w| w.suite == Suite::MediaBench).count(),
            2
        );
        assert_eq!(
            ws.iter().filter(|w| w.suite == Suite::CoreMarkPro).count(),
            6
        );
        // unique names
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn every_workload_verifies_and_runs() {
        for w in all() {
            w.module
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let prof = w.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(prof.total_cycles > 0, "{} did no work", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("3mm").is_some());
        assert!(by_name("loops-all-mid-10k-sp").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}
