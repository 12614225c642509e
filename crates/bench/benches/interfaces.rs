//! Interface-model ablation: the classic 3-kind interface model
//! (coupled/decoupled/scratchpad, [`ModelOptions::baseline3`]) against the
//! extended descriptor model (banked and double-buffered scratchpads, line
//! buffers), per corpus kernel, written to `BENCH_interfaces.json`.
//!
//! For every kernel both models run the full Algorithm 1 selection; at the
//! 65%-tile budget the report compares:
//!
//! * **modeled cycles** — the whole-program cycle count after acceleration
//!   (`T_all·F − saved·F`),
//! * **area** — of the budgeted pick,
//! * **front sizes** — Pareto-front cardinality under each model,
//! * **interface mix** — `#C/#D/#S/#LB` of the extended pick, and whether
//!   it actually deploys an extended interface (banked / double-buffered /
//!   line buffer),
//! * **strict improvement** — whether some extended-front point strictly
//!   Pareto-dominates a baseline-front point (≤ area *and* > savings).
//!
//! The acceptance gate (ISSUE 8): at least 5 stencil kernels must deploy a
//! line-buffer or banked interface *and* strictly improve on the 3-kind
//! baseline. `--smoke` restricts the sweep to the stencil suite plus a few
//! non-stencil controls, still asserts the gate, and leaves the tracked
//! JSON untouched.
//!
//! ```text
//! cargo bench -p cayman-bench --bench interfaces            # full corpus, writes JSON
//! cargo bench -p cayman-bench --bench interfaces -- --smoke # CI gate, no JSON
//! ```

use cayman::hls::interface::InterfaceKind;
use cayman::ir::cpu_model::CPU_FREQ_HZ;
use cayman::workloads::Suite;
use cayman::{Framework, ModelOptions, SelectOptions, Solution, CVA6_TILE_AREA};
use cayman_bench::json;
use std::path::Path;

/// Area budget the per-kernel picks are compared at (fraction of the CVA6
/// tile), matching the ablation binary.
const BUDGET: f64 = 0.65;

struct Pick {
    area: f64,
    speedup: f64,
    /// Whole-program cycles after acceleration under this pick.
    modeled_cycles: f64,
}

fn pick(sol: &Solution, total_cycles: u64) -> Pick {
    Pick {
        area: sol.area,
        speedup: sol.speedup(total_cycles),
        modeled_cycles: (total_cycles as f64 - sol.saved_seconds * CPU_FREQ_HZ).max(0.0),
    }
}

/// `true` when some `ext` front point strictly Pareto-dominates a `base`
/// front point: no more area, strictly more savings. The empty solution is
/// on every front, so any extended point with savings beyond the baseline's
/// best-at-its-area qualifies.
fn strictly_improves(ext: &[Solution], base: &[Solution]) -> bool {
    ext.iter().any(|e| {
        base.iter()
            .any(|b| e.area <= b.area && e.saved_seconds > b.saved_seconds)
    })
}

/// `true` when the solution deploys at least one extended interface.
fn uses_extended(sol: &Solution) -> bool {
    sol.kernels.iter().any(|k| {
        k.design.interfaces.iter().any(|(_, s)| {
            matches!(
                s.kind,
                InterfaceKind::BankedScratchpad
                    | InterfaceKind::DoubleBuffered
                    | InterfaceKind::LineBuffer
            )
        })
    })
}

struct Row {
    name: &'static str,
    suite: Suite,
    total_cycles: u64,
    front_base: usize,
    front_ext: usize,
    base: Pick,
    ext: Pick,
    iface: (usize, usize, usize, usize),
    uses_extended: bool,
    strict_improve: bool,
}

fn measure(w: &cayman::workloads::Workload) -> Row {
    let fw = Framework::from_workload(w).expect("corpus kernel analyses");
    let base_sel = fw.select(&SelectOptions {
        model: ModelOptions::baseline3(),
        ..Default::default()
    });
    let ext_sel = fw.select(&SelectOptions::default());
    let total = fw.app.total_cycles();
    let budget = BUDGET * CVA6_TILE_AREA;
    let base_best = base_sel.best_under(budget);
    let ext_best = ext_sel.best_under(budget);
    Row {
        name: w.name,
        suite: w.suite,
        total_cycles: total,
        front_base: base_sel.pareto.len(),
        front_ext: ext_sel.pareto.len(),
        base: pick(base_best, total),
        ext: pick(ext_best, total),
        iface: ext_best.iface_counts(),
        uses_extended: uses_extended(ext_best),
        strict_improve: strictly_improves(&ext_sel.pareto, &base_sel.pareto),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let all = cayman::workloads::full();
    let workloads: Vec<_> = if smoke {
        // The gate lives in the stencil suite; keep a few non-stencil
        // kernels as controls so regressions elsewhere still surface.
        let stencils = all.iter().filter(|w| w.suite == Suite::Stencil);
        let controls = all.iter().filter(|w| w.suite != Suite::Stencil).take(6);
        stencils.chain(controls).collect()
    } else {
        all.iter().collect()
    };

    let rows: Vec<Row> = workloads.iter().map(|w| measure(w)).collect();

    let improved = rows.iter().filter(|r| r.strict_improve).count();
    let extended_deployed = rows.iter().filter(|r| r.uses_extended).count();
    let stencil_wins = rows
        .iter()
        .filter(|r| r.suite == Suite::Stencil && r.uses_extended && r.strict_improve)
        .count();
    println!(
        "# interfaces over {} kernels: {} strictly improved, {} deploy extended interfaces, \
         {} stencil kernels win with line-buffer/banked",
        rows.len(),
        improved,
        extended_deployed,
        stencil_wins,
    );

    // Acceptance gate: the extended model must pay off on the stencil suite.
    assert!(
        stencil_wins >= 5,
        "only {stencil_wins} stencil kernels deploy an extended interface with a strict \
         Pareto improvement (need >= 5)"
    );
    // Baseline configurations are a subset of the extended enumeration, so
    // the extended model can essentially never be worse — but not *exactly*
    // never: Algorithm 1's α-spacing filter thins denser fronts, so adding
    // extended points near a baseline point can evict it from the filtered
    // front and nudge the budgeted pick. Allow that filtering artifact (≤1%)
    // and nothing more.
    for r in &rows {
        assert!(
            r.ext.speedup >= r.base.speedup * 0.99,
            "{}: extended pick ({:.4}x) worse than 3-kind baseline ({:.4}x) beyond the \
             alpha-spacing tolerance",
            r.name,
            r.ext.speedup,
            r.base.speedup
        );
    }

    if smoke {
        println!(
            "smoke mode: stencil gate holds, extended never worse; \
             BENCH_interfaces.json left untouched"
        );
        return;
    }

    let out = json::document(|o| {
        o.str("bench", "interfaces");
        json::host(o);
        o.str(
            "note",
            "3-kind interface baseline vs extended descriptor model; picks compared at the \
             65%-tile budget; modeled_cycles = whole-program cycles after acceleration; \
             strict_improve = some extended front point Pareto-dominates a baseline point",
        );
        o.f64("budget", BUDGET, 2);
        o.u64("kernels", rows.len() as u64);
        o.u64("strictly_improved", improved as u64);
        o.u64("extended_deployed", extended_deployed as u64);
        o.u64("stencil_wins", stencil_wins as u64);
        o.arr("rows", |a| {
            for r in &rows {
                a.obj(|o| {
                    o.str("name", r.name);
                    o.str("suite", &r.suite.to_string());
                    o.u64("total_cycles", r.total_cycles);
                    o.u64("front_base", r.front_base as u64);
                    o.u64("front_ext", r.front_ext as u64);
                    o.obj("base", |o| {
                        o.f64("area", r.base.area, 1);
                        o.f64("speedup", r.base.speedup, 4);
                        o.f64("modeled_cycles", r.base.modeled_cycles, 0);
                    });
                    o.obj("ext", |o| {
                        o.f64("area", r.ext.area, 1);
                        o.f64("speedup", r.ext.speedup, 4);
                        o.f64("modeled_cycles", r.ext.modeled_cycles, 0);
                    });
                    let (c, d, s, lb) = r.iface;
                    o.obj("ifaces", |o| {
                        o.u64("coupled", c as u64);
                        o.u64("decoupled", d as u64);
                        o.u64("scratchpad", s as u64);
                        o.u64("line_buffer", lb as u64);
                    });
                    o.bool("uses_extended", r.uses_extended);
                    o.bool("strict_improve", r.strict_improve);
                });
            }
        });
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interfaces.json");
    std::fs::write(&path, out).expect("write BENCH_interfaces.json");
    println!("wrote {}", path.display());
}
