//! Profiling-throughput bench: the pre-decoded interpreter vs the reference
//! tree walker, in dynamic basic blocks per second, per benchmark suite.
//!
//! Each timed iteration profiles every workload of a suite end to end —
//! engine construction (including the decode pass; compile-once is part of
//! the honest cost), realistic memory image, full run. Throughput is
//! `blocks_executed / min_iteration_time`, so the reported ratio is exactly
//! the profiling speedup an `Application::analyse` call sees.
//!
//! ```text
//! cargo bench -p cayman-bench --bench profiling            # full, writes BENCH_profiling.json
//! cargo bench -p cayman-bench --bench profiling -- --smoke # CI smoke: 1 workload/suite, no JSON
//! ```

use cayman::ir::interp::Interp;
use cayman::workloads::{self, Suite, Workload};
use cayman_bench::harness::bench;
use cayman_bench::json;
use std::path::Path;

/// One suite's measurement.
struct SuiteResult {
    label: &'static str,
    benchmarks: usize,
    /// Dynamic blocks executed by one full pass over the suite.
    blocks: u64,
    decoded_blocks_per_s: f64,
    reference_blocks_per_s: f64,
}

impl SuiteResult {
    fn speedup(&self) -> f64 {
        self.decoded_blocks_per_s / self.reference_blocks_per_s.max(1e-12)
    }
}

fn suite_label(s: Suite) -> &'static str {
    match s {
        Suite::PolyBench => "polybench",
        Suite::MachSuite => "machsuite",
        Suite::MediaBench => "mediabench",
        Suite::CoreMarkPro => "coremark",
        Suite::Stencil => "stencil",
        Suite::Control => "control",
        Suite::Generated => "generated",
    }
}

/// Profiles every workload once under one engine; returns total dynamic
/// blocks (the throughput numerator, and a sanity anchor: both engines must
/// execute the identical number).
fn profile_all(ws: &[&Workload], decoded: bool) -> u64 {
    let mut total = 0u64;
    for w in ws {
        let mut interp = if decoded {
            Interp::new(&w.module)
        } else {
            Interp::reference(&w.module)
        };
        interp.memory = w.memory();
        total += interp
            .run(&[])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .blocks_executed();
    }
    total
}

fn measure_suite(suite: Suite, ws: &[&Workload]) -> SuiteResult {
    let label = suite_label(suite);
    let blocks = profile_all(ws, true);
    assert_eq!(
        blocks,
        profile_all(ws, false),
        "{label}: engines disagree on dynamic block count"
    );
    let dec = bench(&format!("profiling/{label}/decoded"), || {
        profile_all(ws, true)
    });
    let walk = bench(&format!("profiling/{label}/reference"), || {
        profile_all(ws, false)
    });
    let r = SuiteResult {
        label,
        benchmarks: ws.len(),
        blocks,
        decoded_blocks_per_s: blocks as f64 / dec.min_s,
        reference_blocks_per_s: blocks as f64 / walk.min_s,
    };
    println!(
        "{:<22} {:>2} benchmarks {:>12} blocks | decoded {:>12.0} blk/s | walker {:>12.0} blk/s | {:>5.2}x",
        r.label,
        r.benchmarks,
        r.blocks,
        r.decoded_blocks_per_s,
        r.reference_blocks_per_s,
        r.speedup()
    );
    r
}

/// Machine-readable output via the shared `cayman_bench::json` writer.
fn to_json(results: &[SuiteResult]) -> String {
    json::document(|o| {
        o.str("bench", "profiling");
        json::host(o);
        o.str("unit", "blocks_per_second");
        o.arr("suites", |a| {
            for r in results {
                a.obj(|o| {
                    o.str("suite", r.label);
                    o.u64("benchmarks", r.benchmarks as u64);
                    o.u64("blocks_per_run", r.blocks);
                    o.f64("decoded_blocks_per_s", r.decoded_blocks_per_s, 0);
                    o.f64("reference_blocks_per_s", r.reference_blocks_per_s, 0);
                    o.f64("speedup", r.speedup(), 2);
                });
            }
        });
        let total_blocks: u64 = results.iter().map(|r| r.blocks).sum();
        let dec_s: f64 = results
            .iter()
            .map(|r| r.blocks as f64 / r.decoded_blocks_per_s)
            .sum();
        let walk_s: f64 = results
            .iter()
            .map(|r| r.blocks as f64 / r.reference_blocks_per_s)
            .sum();
        o.obj("overall", |o| {
            o.u64("blocks_per_run", total_blocks);
            o.f64("decoded_blocks_per_s", total_blocks as f64 / dec_s, 0);
            o.f64("reference_blocks_per_s", total_blocks as f64 / walk_s, 0);
            o.f64("speedup", walk_s / dec_s, 2);
        });
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "# profiling throughput — pre-decoded engine vs reference walker{}",
        if smoke { " (smoke)" } else { "" }
    );

    let all = workloads::all();
    let suites = [
        Suite::PolyBench,
        Suite::MachSuite,
        Suite::MediaBench,
        Suite::CoreMarkPro,
    ];
    let mut results = Vec::new();
    for suite in suites {
        let mut ws: Vec<&Workload> = all.iter().filter(|w| w.suite == suite).collect();
        assert!(!ws.is_empty(), "suite {suite:?} has no workloads");
        if smoke {
            ws.truncate(1); // one representative per suite keeps CI fast
        }
        results.push(measure_suite(suite, &ws));
    }

    let poly = &results[0];
    println!(
        "\npolybench decoded-vs-walker speedup: {:.2}x (target >= 3x)",
        poly.speedup()
    );
    if smoke {
        assert!(
            poly.speedup() > 1.0,
            "decoded engine slower than the walker: {:.2}x",
            poly.speedup()
        );
        println!("smoke mode: BENCH_profiling.json left untouched");
        return;
    }
    if poly.speedup() < 3.0 {
        eprintln!(
            "WARNING: polybench speedup {:.2}x below the 3x target",
            poly.speedup()
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_profiling.json");
    std::fs::write(&path, to_json(&results)).expect("write BENCH_profiling.json");
    println!("wrote {}", path.display());
}
