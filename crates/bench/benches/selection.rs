//! Benches for the selection DP (Algorithm 1), on the dependency-free
//! `cayman_bench::harness`:
//!
//! * `selection_scaling/*` — selection time vs application size (the
//!   α-filter keeps per-node Pareto sequences logarithmic, so growth should
//!   be near-linear in the number of wPST vertices),
//! * `selection_cache/*` — cold vs memoised selection,
//! * `alpha_sweep/*` — the ablation for the `filter` spacing parameter,
//! * `workload/*` — end-to-end selection on representative real benchmarks,
//! * `selection_shapes/*` — uncached selection on a balanced and a skewed
//!   wPST, plus the `suite` shape (one Table II op's three selections on
//!   every kernel), written to `BENCH_selection.json` with the cost of a
//!   disabled trace span. Every time there is a wall time measured on the
//!   host that wrote it.
//!
//! ```text
//! cargo bench -p cayman-bench --bench selection            # full, writes BENCH_selection.json
//! cargo bench -p cayman-bench --bench selection -- --smoke # CI smoke: every shape once, span cost bound
//! ```

use cayman::ir::builder::{FunctionBuilder, ModuleBuilder};
use cayman::ir::{ArrayId, Type};
use cayman::select::{run_selection, CaymanModel, DesignCache};
use cayman::workloads::Workload;
use cayman::{Framework, SelectOptions};
use cayman_bench::harness::{fmt_duration, run};
use cayman_bench::json;
use std::path::Path;
use std::time::Instant;

/// An application with `k` independent streaming kernels (scales the wPST).
fn synthetic_app(k: usize) -> cayman::ir::Module {
    let mut mb = ModuleBuilder::new(format!("synth{k}"));
    let mut funcs = Vec::new();
    for i in 0..k {
        let x = mb.array(format!("x{i}"), Type::F64, &[64]);
        let y = mb.array(format!("y{i}"), Type::F64, &[64]);
        let f = mb.function(format!("k{i}"), &[], None, |fb| {
            fb.counted_loop(0, 64, 1, |fb, ii| {
                let xv = fb.load_idx(x, &[ii]);
                let t = fb.fmul(xv, fb.fconst(1.5 + i as f64));
                let v = fb.fadd(t, fb.fconst(1.0));
                fb.store_idx(y, &[ii], v);
            });
            fb.ret(None);
        });
        funcs.push(f);
    }
    mb.function("main", &[], None, |fb| {
        for &f in &funcs {
            fb.call(f, &[], None);
        }
        fb.ret(None);
    });
    mb.finish()
}

/// Uncached selection (fresh cache each call).
fn select_uncached(fw: &Framework, opts: &SelectOptions) -> cayman::SelectionResult {
    let inputs = fw.app.inputs();
    run_selection(
        &fw.app.module,
        &fw.app.wpst,
        &fw.app.profile,
        &inputs,
        opts,
        &CaymanModel(opts.model.clone()),
        &DesignCache::new(),
        None,
    )
}

fn bench_selection_scaling() {
    println!("# selection_scaling — wPST size sweep (uncached)");
    for k in [2usize, 4, 8, 16] {
        let fw = Framework::from_module(synthetic_app(k)).expect("analyses");
        let opts = SelectOptions::default();
        run(&format!("selection_scaling/{k}"), || {
            select_uncached(&fw, &opts)
        });
    }
}

fn bench_selection_cache() {
    println!("# selection_cache — cold vs memoised accel(v, R)");
    let fw = Framework::from_module(synthetic_app(8)).expect("analyses");
    let opts = SelectOptions::default();
    let cold = run("selection_cache/cold", || select_uncached(&fw, &opts));
    // warm: reuse the framework's shared cache (first call fills it)
    let first = fw.select(&opts);
    assert!(first.stats.cache_misses > 0);
    let warm = run("selection_cache/warm", || fw.select(&opts));
    let stats = fw.select(&opts).stats;
    println!(
        "{:<36} hit rate {:.0}%, warm speedup {:.2}x",
        "",
        stats.cache_hit_rate() * 100.0,
        cold.min_s / warm.min_s
    );
    assert!(stats.cache_hit_rate() > 0.0);
}

fn bench_alpha_sweep() {
    println!("# alpha_sweep — filter spacing ablation on 8 kernels");
    let fw = Framework::from_module(synthetic_app(8)).expect("analyses");
    for alpha in [1.01f64, 1.05, 1.1, 1.3, 2.0] {
        let opts = SelectOptions {
            alpha,
            ..Default::default()
        };
        run(&format!("alpha_sweep/{alpha}"), || {
            select_uncached(&fw, &opts)
        });
    }
}

fn bench_real_workloads() {
    println!("# workload_selection — end-to-end on real benchmarks (uncached)");
    for name in ["trisolv", "bicg", "spmv"] {
        let w = cayman::workloads::by_name(name).expect("exists");
        let fw = Framework::from_workload(&w).expect("analyses");
        let opts = SelectOptions::default();
        let m = run(&format!("workload_selection/{name}"), || {
            select_uncached(&fw, &opts)
        });
        let stats = select_uncached(&fw, &opts).stats;
        println!("{:<36} {} (best {})", "", stats, fmt_duration(m.min_s));
    }
}

/// One heavy 16×8 loop nest: enough instructions per wPST vertex that
/// `accel(v, R)` does real scheduling/pipelining work and dominates the
/// run.
fn emit_nest(fb: &mut FunctionBuilder, x: ArrayId, y: ArrayId, seed: f64) {
    fb.counted_loop(0, 16, 1, |fb, i| {
        fb.counted_loop(0, 8, 1, |fb, j| {
            let xv = fb.load_idx(x, &[i, j]);
            let yv = fb.load_idx(y, &[i, j]);
            let mut acc = fb.fmul(xv, yv);
            for k in 0..48 {
                acc = if k % 2 == 0 {
                    fb.fadd(acc, xv)
                } else {
                    fb.fmul(acc, fb.fconst(seed))
                };
            }
            fb.store_idx(y, &[i, j], acc);
        });
    });
}

/// Balanced wPST: 16 sibling functions, one heavy nest each — every root
/// child costs the same.
fn balanced_app() -> cayman::ir::Module {
    let mut mb = ModuleBuilder::new("balanced");
    let arrays: Vec<_> = (0..16)
        .map(|i| {
            (
                mb.array(format!("x{i}"), Type::F64, &[16, 8]),
                mb.array(format!("y{i}"), Type::F64, &[16, 8]),
            )
        })
        .collect();
    let funcs: Vec<_> = arrays
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            mb.function(format!("k{i}"), &[], None, |fb| {
                emit_nest(fb, x, y, 1.25 + i as f64 * 0.125);
                fb.ret(None);
            })
        })
        .collect();
    mb.function("main", &[], None, |fb| {
        for &f in &funcs {
            fb.call(f, &[], None);
        }
        fb.ret(None);
    });
    mb.finish()
}

/// Skewed wPST: one hot function holding 12 heavy nests plus 8 trivial
/// siblings, so almost all the work sits under one root child.
fn skewed_app() -> cayman::ir::Module {
    let mut mb = ModuleBuilder::new("skewed");
    let x = mb.array("x", Type::F64, &[16, 8]);
    let y = mb.array("y", Type::F64, &[16, 8]);
    let hot = mb.function("hot", &[], None, |fb| {
        for n in 0..12 {
            emit_nest(fb, x, y, 1.25 + n as f64 * 0.125);
        }
        fb.ret(None);
    });
    let trivial: Vec<_> = (0..8)
        .map(|i| {
            let z = mb.array(format!("z{i}"), Type::F64, &[4]);
            mb.function(format!("t{i}"), &[], None, |fb| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let v = fb.load_idx(z, &[j]);
                    let w = fb.fadd(v, fb.fconst(1.0));
                    fb.store_idx(z, &[j], w);
                });
                fb.ret(None);
            })
        })
        .collect();
    mb.function("main", &[], None, |fb| {
        fb.call(hot, &[], None);
        for &f in &trivial {
            fb.call(f, &[], None);
        }
        fb.ret(None);
    });
    mb.finish()
}

/// One tracked shape: its name and the wall time of one selection over it.
struct ShapeResult {
    shape: &'static str,
    wall_s: f64,
}

/// Uncached selection wall time on a balanced and a skewed wPST.
fn bench_shapes(smoke: bool) -> Vec<ShapeResult> {
    println!("# selection_shapes — balanced and skewed wPSTs (uncached)");
    let mut out = Vec::new();
    for (shape, module) in [("balanced", balanced_app()), ("skewed", skewed_app())] {
        let fw = Framework::from_module(module).expect("analyses");
        // A wider α-spacing keeps the per-vertex Pareto sequences short, so
        // the runs are dominated by `accel(v, R)` model calls rather than by
        // the root-level combine.
        let opts = SelectOptions {
            alpha: 2.0,
            ..Default::default()
        };
        let wall_s = if smoke {
            let t0 = Instant::now();
            select_uncached(&fw, &opts);
            t0.elapsed().as_secs_f64()
        } else {
            run(&format!("selection_shapes/{shape}"), || {
                select_uncached(&fw, &opts)
            })
            .min_s
        };
        out.push(ShapeResult { shape, wall_s });
    }
    out
}

/// Timed repetitions per kernel in the `suite` shape.
const SUITE_REPS: usize = 5;

/// The `suite` shape: per-kernel median wall time of the three selections
/// one Table II op runs, summed over every kernel.
struct SuiteResult {
    kernels: usize,
    reps: usize,
    wall_s: f64,
}

/// One Table II op's selections — Cayman, NOVIA, QsCores — on a fresh
/// `-O1` framework (so every model call is cold, as in the op), timed
/// without the analysis that builds the framework.
fn suite_selections(w: &Workload) -> f64 {
    let fw = Framework::from_workload(w).expect("analyses");
    let opts = SelectOptions::default();
    let t0 = Instant::now();
    fw.select(&opts);
    fw.select_novia(&opts);
    fw.select_qscores(&opts);
    t0.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The suite shape over all kernels of `workloads::full()`.
fn bench_suite(smoke: bool) -> SuiteResult {
    println!("# selection_shapes/suite — Table II selections per kernel");
    let workloads = cayman::workloads::full();
    let reps = if smoke { 1 } else { SUITE_REPS };
    let wall_s = workloads
        .iter()
        .map(|w| median((0..reps).map(|_| suite_selections(w)).collect()))
        .sum();
    let result = SuiteResult {
        kernels: workloads.len(),
        reps,
        wall_s,
    };
    println!(
        "{:<36} {} kernels: {}",
        "selection_shapes/suite",
        result.kernels,
        fmt_duration(wall_s)
    );
    result
}

/// The tentpole's near-zero-cost claim, as a tracked number: nanoseconds per
/// disabled `span!` + always-on `Counter::add` pair on the selection
/// hot-path shape. The per-event cost must stay within a couple of atomic
/// operations (the CI smoke
/// run asserts a generous microsecond bound; the zero-allocation property is
/// unit-tested in `cayman-obs`).
fn measure_obs_disabled_ns() -> f64 {
    assert!(
        !cayman_obs::enabled(),
        "tracing must stay disabled during benches"
    );
    let iters = 1_000_000u64;
    let hits = cayman_obs::registry::counter("bench.obs.counter");
    // Warm the thread-local tid/seq cells out of the measurement.
    let _ = std::hint::black_box(cayman_obs::span!("bench.obs.warmup"));
    let t0 = Instant::now();
    for i in 0..iters {
        let guard = cayman_obs::span!("select.combine", vertex = i);
        hits.add(1);
        let _ = std::hint::black_box(guard);
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!(
        "{:<36} disabled span+counter: {ns:.1} ns/pair",
        "obs_overhead"
    );
    ns
}

/// Machine-readable output via the shared `cayman_bench::json` writer.
fn selection_json(results: &[ShapeResult], suite: &SuiteResult, obs_disabled_ns: f64) -> String {
    json::document(|o| {
        o.str("bench", "selection");
        json::host(o);
        o.str(
            "note",
            "every time is wall time, measured on the host that wrote this file: the balanced and \
             skewed shapes' best of the harness's runs of one uncached selection, and the suite \
             shape's sum over kernels of the per-kernel median of its reps",
        );
        o.f64("obs_disabled_span_ns", obs_disabled_ns, 1);
        o.arr("shapes", |a| {
            for r in results {
                a.obj(|o| {
                    o.str("shape", r.shape);
                    o.f64("wall_s", r.wall_s, 6);
                });
            }
            a.obj(|o| {
                o.str("shape", "suite");
                o.u64("kernels", suite.kernels as u64);
                o.u64("reps", suite.reps as u64);
                o.f64("wall_s", suite.wall_s, 6);
            });
        });
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        bench_shapes(true);
        bench_suite(true);
        let obs_ns = measure_obs_disabled_ns();
        assert!(
            obs_ns < 1_000.0,
            "disabled tracing costs {obs_ns:.0} ns per span — not near-zero"
        );
        println!("smoke mode: every shape selected once; BENCH_selection.json left untouched");
        return;
    }
    bench_selection_scaling();
    bench_selection_cache();
    bench_alpha_sweep();
    bench_real_workloads();
    let results = bench_shapes(false);
    let suite = bench_suite(false);
    let obs_ns = measure_obs_disabled_ns();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_selection.json");
    std::fs::write(&path, selection_json(&results, &suite, obs_ns))
        .expect("write BENCH_selection.json");
    println!("wrote {}", path.display());
}
