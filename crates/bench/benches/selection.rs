//! Benches for the selection DP (Algorithm 1), on the dependency-free
//! `cayman_bench::harness`:
//!
//! * `selection_scaling/*` — selection time vs application size (the
//!   α-filter keeps per-node Pareto sequences logarithmic, so growth should
//!   be near-linear in the number of wPST vertices),
//! * `selection_threads/*` — the same application across thread budgets
//!   (model calls spread over work-stealing workers),
//! * `selection_cache/*` — cold vs memoised selection,
//! * `alpha_sweep/*` — the ablation for the `filter` spacing parameter,
//! * `workload/*` — end-to-end selection on representative real benchmarks,
//! * `selection_sched/*` — the sequential reference vs work stealing on
//!   balanced and skewed wPSTs across thread budgets, plus the `suite`
//!   shape (one Table II op's three selections on every kernel at threads 1
//!   and 2, where the per-call cost of going parallel shows), written to
//!   `BENCH_selection.json`. Every number there is a wall time measured on
//!   the host that wrote it; per-worker time is in the trace's
//!   `select.worker.<n>` lanes, not here.
//!
//! ```text
//! cargo bench -p cayman-bench --bench selection            # full, writes BENCH_selection.json
//! cargo bench -p cayman-bench --bench selection -- --smoke # CI smoke: engine equivalence only
//! ```

use cayman::ir::builder::{FunctionBuilder, ModuleBuilder};
use cayman::ir::{ArrayId, Type};
use cayman::select::{run_selection, CaymanModel, DesignCache};
use cayman::workloads::Workload;
use cayman::{Framework, SelectOptions, Solution};
use cayman_bench::harness::{fmt_duration, run};
use cayman_bench::json;
use std::hint::black_box;
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

/// Uncached selection (fresh cache each call), at a given thread budget.
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
    println!("# selection_scaling — wPST size sweep (uncached, threads=1)");
    for k in [2usize, 4, 8, 16] {
        let fw = Framework::from_module(synthetic_app(k)).expect("analyses");
        let opts = SelectOptions::default();
        run(&format!("selection_scaling/{k}"), || {
            select_uncached(&fw, &opts)
        });
    }
}

fn bench_selection_threads() {
    println!("# selection_threads — thread-budget sweep on 16 kernels (uncached)");
    let fw = Framework::from_module(synthetic_app(16)).expect("analyses");
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let opts = SelectOptions {
            threads,
            ..Default::default()
        };
        let m = run(&format!("selection_threads/{threads}"), || {
            select_uncached(&fw, &opts)
        });
        match baseline {
            None => baseline = Some(m.min_s),
            Some(b) => println!("{:<36} speedup over threads=1: {:.2}x", "", b / m.min_s),
        }
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
        "{:<36} hit rate {:.0}%, model time saved {} per run, warm speedup {:.2}x",
        "",
        stats.cache_hit_rate() * 100.0,
        fmt_duration(first.stats.model_seconds()),
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
/// run (the regime work stealing spreads over workers).
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
/// child costs the same, so any split of the siblings spreads the work.
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
/// siblings. Splitting the siblings would leave almost all the work with
/// whoever gets the hot function; work stealing treats every nest as an
/// independent task and spreads them over all workers.
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

fn fronts_identical(a: &[Solution], b: &[Solution]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.area.to_bits() == y.area.to_bits()
                && x.saved_seconds.to_bits() == y.saved_seconds.to_bits()
                && x.kernels.len() == y.kernels.len()
                && x.kernels
                    .iter()
                    .zip(&y.kernels)
                    .all(|(k, l)| k.node == l.node && k.design.blocks == l.design.blocks)
        })
}

/// Engine comparison over one wPST shape: the sequential wall time and the
/// work-stealing wall time per thread budget.
struct ShapeResult {
    shape: &'static str,
    wall_seq_s: f64,
    points: Vec<(usize, f64)>,
}

/// The tracked benchmark: selection wall time on a balanced and a skewed
/// wPST, sequentially and with work stealing at 2/4/8 threads. Every
/// parallel run's front is asserted bit-identical to the sequential one.
/// Wall time only shows parallel speedup when the host has free cores.
fn bench_scheduler_comparison(smoke: bool) -> Vec<ShapeResult> {
    println!("# selection_sched — sequential vs work stealing (uncached)");
    let mut out = Vec::new();
    for (shape, module) in [("balanced", balanced_app()), ("skewed", skewed_app())] {
        let fw = Framework::from_module(module).expect("analyses");
        // A wider α-spacing keeps the per-vertex Pareto sequences short, so
        // the runs are dominated by `accel(v, R)` model calls — the
        // distributable work — rather than by the serial root-level combine.
        let seq_opts = SelectOptions {
            alpha: 2.0,
            ..Default::default()
        };
        let reference = select_uncached(&fw, &seq_opts);
        let wall_seq_s = if smoke {
            let t0 = Instant::now();
            select_uncached(&fw, &seq_opts);
            t0.elapsed().as_secs_f64()
        } else {
            run(&format!("selection_sched/{shape}/seq"), || {
                select_uncached(&fw, &seq_opts)
            })
            .min_s
        };
        let mut points = Vec::new();
        for threads in [2usize, 4, 8] {
            let opts = SelectOptions {
                threads,
                ..seq_opts.clone()
            };
            let label = format!("selection_sched/{shape}/stealx{threads}");
            let t0 = Instant::now();
            let res = select_uncached(&fw, &opts);
            let one_shot_s = t0.elapsed().as_secs_f64();
            assert!(
                fronts_identical(&reference.pareto, &res.pareto),
                "{shape}: threads={threads} diverged from sequential"
            );
            assert_eq!(res.visited, reference.visited, "{label}");
            assert_eq!(
                res.stats.configs_considered, reference.stats.configs_considered,
                "{label}"
            );
            let wall_s = if smoke {
                one_shot_s
            } else {
                run(&label, || select_uncached(&fw, &opts)).min_s
            };
            points.push((threads, wall_s));
        }
        out.push(ShapeResult {
            shape,
            wall_seq_s,
            points,
        });
    }
    out
}

/// Timed repetitions per kernel and thread budget in the `suite` shape.
const SUITE_REPS: usize = 5;

/// The `suite` shape: per-kernel median wall time of the three selections
/// one Table II op runs, summed over every kernel, at threads 1 and 2.
struct SuiteResult {
    kernels: usize,
    reps: usize,
    wall_1_s: f64,
    wall_2_s: f64,
    host_2thread_speedup: f64,
}

/// One Table II op's selections — Cayman, NOVIA, QsCores — on a fresh
/// `-O1` framework (so every model call is cold, as in the op), timed
/// without the analysis that builds the framework.
fn suite_selections(w: &Workload, threads: usize) -> (f64, [Vec<Solution>; 3]) {
    let fw = Framework::from_workload(w).expect("analyses");
    let opts = SelectOptions {
        threads,
        ..Default::default()
    };
    let t0 = Instant::now();
    let fronts = [
        fw.select(&opts).pareto,
        fw.select_novia(&opts).pareto,
        fw.select_qscores(&opts).pareto,
    ];
    (t0.elapsed().as_secs_f64(), fronts)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// How much sooner two threads finish two equal shares of pure arithmetic
/// than one thread finishes both: `2.0` with two free cores, `1.0` when a
/// shared host lends no second core. The suite shape's threads-2 time can
/// only beat threads 1 when this is well above 1. Median of three rounds.
fn measure_host_2thread_speedup() -> f64 {
    fn spin(n: u64) -> u64 {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut acc = 0u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x & 0xff);
        }
        acc
    }
    const SHARE: u64 = 20_000_000;
    let rounds = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(SHARE));
            black_box(spin(SHARE));
            let one_thread = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| black_box(spin(SHARE)));
                black_box(spin(SHARE));
            });
            one_thread / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(rounds)
}

/// The suite shape over all kernels of `workloads::full()`. Thread budgets
/// alternate which runs first on each repetition, so host drift hits both
/// alike. Every kernel's three fronts are asserted bit-identical across
/// the two budgets.
fn bench_suite(smoke: bool) -> SuiteResult {
    println!("# selection_sched/suite — Table II selections per kernel at threads 1 vs 2");
    let workloads = cayman::workloads::full();
    let reps = if smoke { 1 } else { SUITE_REPS };
    let host_2thread_speedup = measure_host_2thread_speedup();
    let (mut wall_1_s, mut wall_2_s) = (0.0, 0.0);
    for w in &workloads {
        let mut secs = [Vec::new(), Vec::new()];
        let mut fronts: [Option<[Vec<Solution>; 3]>; 2] = [None, None];
        for rep in 0..reps {
            for i in [rep % 2, 1 - rep % 2] {
                let (s, f) = suite_selections(w, i + 1);
                secs[i].push(s);
                fronts[i] = Some(f);
            }
        }
        let [Some(seq), Some(par)] = &fronts else {
            unreachable!("every budget ran at least once")
        };
        for (a, b) in seq.iter().zip(par) {
            assert!(
                fronts_identical(a, b),
                "suite: {} diverged between threads 1 and 2",
                w.name
            );
        }
        let [s1, s2] = secs;
        wall_1_s += median(s1);
        wall_2_s += median(s2);
    }
    let result = SuiteResult {
        kernels: workloads.len(),
        reps,
        wall_1_s,
        wall_2_s,
        host_2thread_speedup,
    };
    println!(
        "{:<36} {} kernels: threads=1 {}, threads=2 {} ({:.2}x of threads=1; \
         host 2-thread speedup {:.2}x)",
        "selection_sched/suite",
        result.kernels,
        fmt_duration(wall_1_s),
        fmt_duration(wall_2_s),
        wall_2_s / wall_1_s,
        host_2thread_speedup
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
        let guard = cayman_obs::span!("select.task.accel", vertex = i);
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
fn sched_json(results: &[ShapeResult], suite: &SuiteResult, obs_disabled_ns: f64) -> String {
    json::document(|o| {
        o.str("bench", "selection_sched");
        json::host(o);
        o.str(
            "note",
            "every time is wall time, measured on the host that wrote this file; wall_s shows no \
             parallel speedup when the host has fewer free cores than threads; the suite shape's wall \
             times are sums over kernels of the per-kernel median of its reps, and its host_2thread_speedup is how \
             much sooner two threads finished two equal arithmetic shares than one thread, \
             measured just before it (2 = two free cores, 1 = no second core to be had)",
        );
        o.f64("obs_disabled_span_ns", obs_disabled_ns, 1);
        o.arr("shapes", |a| {
            for r in results {
                a.obj(|o| {
                    o.str("shape", r.shape);
                    o.f64("wall_seq_s", r.wall_seq_s, 6);
                    o.arr("runs", |a| {
                        for &(threads, wall_s) in &r.points {
                            a.obj(|o| {
                                o.u64("threads", threads as u64);
                                o.f64("wall_s", wall_s, 6);
                            });
                        }
                    });
                });
            }
            a.obj(|o| {
                o.str("shape", "suite");
                o.u64("kernels", suite.kernels as u64);
                o.u64("reps", suite.reps as u64);
                o.f64("host_2thread_speedup", suite.host_2thread_speedup, 2);
                o.f64("wall_seq_s", suite.wall_1_s, 6);
                o.arr("runs", |a| {
                    a.obj(|o| {
                        o.u64("threads", 2);
                        o.f64("wall_s", suite.wall_2_s, 6);
                        o.f64("wall_over_seq", suite.wall_2_s / suite.wall_1_s, 3);
                    });
                });
            });
        });
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        bench_scheduler_comparison(true);
        bench_suite(true);
        let obs_ns = measure_obs_disabled_ns();
        assert!(
            obs_ns < 1_000.0,
            "disabled tracing costs {obs_ns:.0} ns per span — not near-zero"
        );
        println!(
            "smoke mode: fronts bit-identical across engines and thread budgets \
             (synthetic shapes and all suite kernels); \
             BENCH_selection.json left untouched"
        );
        return;
    }
    bench_selection_scaling();
    bench_selection_threads();
    bench_selection_cache();
    bench_alpha_sweep();
    bench_real_workloads();
    let results = bench_scheduler_comparison(false);
    let suite = bench_suite(false);
    let obs_ns = measure_obs_disabled_ns();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_selection.json");
    std::fs::write(&path, sched_json(&results, &suite, obs_ns))
        .expect("write BENCH_selection.json");
    println!("wrote {}", path.display());
}
