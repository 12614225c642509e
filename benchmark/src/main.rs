//! The repository benchmark: four seeded workloads over the analyse →
//! select → merge pipeline and the `caymand` service, with end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cayman-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! cayman-benchmark compare <parent-results-dir> <change-results-dir>
//! cayman-benchmark golden > benchmark/golden/kernels.tsv
//! ```
//!
//! See `benchmark/README.md` for the workload and metric catalogue.

mod compare;
mod edit_loop;
mod edits;
mod golden;
mod host;
mod report;
mod rng;
mod serve;
mod speed;
mod stats;
mod suite_cold;
mod trace;

use cayman::{AnalyseOptions, ModelOptions, OptLevel, SelectOptions};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["suite-cold", "edit-loop", "serve-warm", "serve-churn"];

/// Set-up is timed in this many batches per run, and the median batch
/// reported, so one slow batch cannot move `setup_s`. The batches take the
/// allowed CPUs in turn, and the count is even: on the shared host one CPU
/// may run set-up at two thirds of the other's speed for minutes, and with
/// two CPUs the median then falls between them instead of on whichever CPU
/// the scheduler chose.
pub const SETUP_BATCHES: usize = 6;

/// Seconds a batch of set-up repetitions spans at least (one repetition,
/// when a set-up takes longer). The shared host runs a CPU at about 60% of
/// its speed in spells of tens of milliseconds to minutes. A set-up of a
/// few milliseconds falls wholly inside or outside a short spell, so single
/// repetition times were bimodal; a batch's mean time averages over the
/// short spells.
pub const SETUP_BATCH_S: f64 = 0.25;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Short correctness pass: percentiles are reported without the
    /// ten-samples-beyond rule.
    pub smoke: bool,
}

/// The analyse options every workload uses: the paper's `-O1`.
pub fn analyse_opts() -> AnalyseOptions {
    AnalyseOptions {
        opt_level: OptLevel::O1,
        verify_each_pass: false,
    }
}

/// Selection options, spelled out so no default or environment variable can
/// change what is measured. The scheduler is the default engine (the
/// environment override is refused by [`host::check_hermetic`]).
pub fn select_opts(threads: usize) -> SelectOptions {
    SelectOptions {
        model: ModelOptions::default(),
        alpha: 1.1,
        prune_share: 0.001,
        threads,
        sched: Default::default(),
    }
}

/// Runs `setup` (given the repetition's index) in [`SETUP_BATCHES`]
/// batches of at least [`SETUP_BATCH_S`] each, each batch pinned to the
/// next allowed CPU, dropping each result before the next repetition;
/// records the median of the batches' mean repetition times as
/// `raw_setup_s` (put at the reference host's speed as `setup_s` by
/// [`speed::put_ops`]) and returns the last result. Every thread of the
/// process may run on every allowed CPU again afterwards, threads the
/// set-up started included.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut(usize) -> T) -> T {
    let cpus = host::allowed_cpus();
    let mut batches = Vec::with_capacity(SETUP_BATCHES);
    let (mut last, mut reps) = (None, 0);
    while batches.len() < SETUP_BATCHES {
        if let Some(&cpu) = cpus.get(batches.len() % cpus.len().max(1)) {
            host::pin(0, cpu);
        }
        let (start, mut busy_s, mut n) = (Instant::now(), 0.0, 0);
        while n == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(setup(reps));
            busy_s += t0.elapsed().as_secs_f64();
            n += 1;
            reps += 1;
        }
        batches.push(busy_s / n as f64);
    }
    if !cpus.is_empty() {
        for tid in host::thread_ids() {
            host::pin_to(tid, &cpus);
        }
    }
    report.put("raw_setup_s", stats::median(&batches), "s");
    report.put("setup_reps", reps as f64, "count");
    last.expect("at least one set-up repetition")
}

/// Records `op_p50_ms` / `op_p99_ms` and the sample count; outside smoke
/// runs, a p99 without ten samples beyond it makes the run incorrect.
pub fn put_latency(report: &mut Report, ctx: &Ctx, samples_ms: &mut [f64]) {
    let Some(l) = stats::Latency::of(samples_ms) else {
        report.problems.push("no latency samples".to_string());
        return;
    };
    if !ctx.smoke && !stats::tail_supported(l.n, 0.99) {
        report
            .problems
            .push(format!("{} samples cannot support a p99", l.n));
    }
    report.put("op_p50_ms", l.p50, "ms");
    report.put("op_p99_ms", l.p99, "ms");
    report.put("op_samples", l.n as f64, "count");
}

/// Records `peak_rss_mb`, the process's `VmHWM` when the timed ops end:
/// set-up and the ops count, the correctness checks and reporting after
/// them do not.
pub fn put_peak_rss(report: &mut Report) {
    report.put("peak_rss_mb", host::peak_rss_mb(), "MB");
}

/// Records a layer's time as `<layer>.ms` per op and `<layer>.share` of op
/// wall time.
pub fn put_layer(report: &mut Report, layer: &str, ns: f64, ops: u64, wall_ns: f64) {
    report.put(
        format!("{layer}.ms"),
        stats::ratio(ns, ops as f64) / 1e6,
        "ms",
    );
    report.put(format!("{layer}.share"), stats::ratio(ns, wall_ns), "share");
}

/// `harness.trace_overhead`: traced op p50 over untraced op p50.
pub fn put_overhead(r: &mut Report, traced_ms: &mut [f64], untraced_ms: &mut [f64]) {
    let p50 = |v: &mut [f64]| stats::Latency::of(v).map_or(0.0, |l| l.p50);
    r.put(
        "harness.trace_overhead",
        stats::ratio(p50(traced_ms), p50(untraced_ms)),
        "ratio",
    );
    r.put("traced_ops", traced_ms.len() as f64, "count");
}

/// Records the closing correctness counts.
pub fn put_checks(report: &mut Report) {
    report.put(
        "failed_ratio",
        stats::ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    report.put("front_mismatches", report.mismatches as f64, "count");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cayman-benchmark run --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         cayman-benchmark compare <parent-results-dir> <change-results-dir>\n       \
         cayman-benchmark golden",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Option<(String, Ctx)> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => ctx.smoke = true,
            "--workload" => workload = Some(it.next()?.clone()),
            "--seed" => ctx.seed = it.next()?.parse().ok()?,
            "--seconds" => ctx.seconds = it.next()?.parse().ok().filter(|&s| s > 0)?,
            "--trace" => {
                ctx.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .map(|w| (w, ctx))
}

fn run(workload: &str, ctx: &Ctx) -> ExitCode {
    if let Err(why) = host::check_hermetic() {
        eprintln!("cayman-benchmark: {why}");
        return ExitCode::from(2);
    }
    // Sockets, stores and results live under the benchmark's own directory;
    // relative paths keep socket names short.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&out).expect("create benchmark/results");
    std::env::set_current_dir(&out).expect("enter benchmark/results");

    let rec = trace::Recorder::default();
    let mut report = match workload {
        "suite-cold" => suite_cold::run(ctx, &rec),
        "edit-loop" => edit_loop::run(ctx, &rec),
        "serve-warm" => serve::run(ctx, &rec, &serve::WARM),
        _ => serve::run(ctx, &rec, &serve::CHURN),
    };
    let stem = format!(
        "{workload}-s{}-t{}",
        ctx.seed,
        if ctx.trace { 1 } else { 0 }
    );
    if ctx.trace {
        let chrome = rec.chrome_json();
        match cayman_obs::trace::validate_chrome(&chrome) {
            Ok(summary) if summary.spans == rec.kept_spans() && summary.spans > 0 => {
                report.put("trace_spans", summary.spans as f64, "count");
            }
            Ok(summary) => report.problems.push(format!(
                "trace holds {} spans, expected {}",
                summary.spans,
                rec.kept_spans()
            )),
            Err(e) => report.problems.push(format!("invalid Chrome trace: {e}")),
        }
        std::fs::write(format!("{stem}.trace.json"), chrome).expect("write trace");
    }
    let host = host::Host::detect(ctx.seed);
    std::fs::write(format!("{stem}.json"), report.results_json(&host)).expect("write results");
    for p in &report.problems {
        eprintln!("cayman-benchmark: {workload}: {p}");
    }
    print!("{}", report.lines());
    println!("{}", report.final_json());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Some((workload, ctx)) => run(&workload, &ctx),
            None => usage(),
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("golden") if args.len() == 1 => {
            print!("{}", golden::compute());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
