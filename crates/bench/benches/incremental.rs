//! The tentpole's tracked benchmark: incremental re-analysis latency over
//! the full workload corpus, written to `BENCH_incremental.json`.
//!
//! For every corpus kernel with a float-immediate site to edit, three
//! latencies are measured:
//!
//! * **cold** — a from-scratch `Application::analyse_with` + `run_selection`
//!   (the batch pipeline the incremental path must beat),
//! * **first edit** — `IncrementalApp::apply` + `select` for a
//!   *single-instruction edit* against a warm store: normalization,
//!   structure, decode and dataflow of clean functions and the clean
//!   subtrees' selection fronts all answer from cache, the whole-module
//!   execution re-runs only when the slice proof cannot show the edit
//!   leaves the block counts and return value alone, and the selection
//!   re-runs only when a front key changed. Each kernel's first edit is
//!   the mean over [`SITES`] seeded float-immediate sites, each timed
//!   against its own fresh warm store (the bench reports how many of those
//!   edits it proved and how many the select table answered),
//! * **warm toggle** — the salsa-style "change it back" path: the edit
//!   toggles between two previously analysed states, so the whole-app and
//!   selection queries hit outright and re-selection is two content-hash
//!   probes.
//!
//! One more first edit per kernel runs traced, untimed: the self time of
//! every span (its duration less its children's) over that pass gives the
//! share the `normalize.*` spans take of a fresh edit and the self time per
//! edit of the `analyse.profile` and `analyse.dataflow` stages (where an
//! assembly gathers its cached parts), and the span counts give the GVN
//! runs per normalized function.
//!
//! The headline target (ISSUE 7): median warm-toggle re-selection ≥ 50×
//! faster than cold analyse+select, and median first-edit re-selection
//! under a millisecond. Every measured kernel's incremental front is
//! asserted bit-identical to the from-scratch front before it is timed.
//!
//! ```text
//! cargo bench -p cayman-bench --bench incremental            # full corpus, writes JSON
//! cargo bench -p cayman-bench --bench incremental -- --smoke # CI: 20 kernels, no JSON
//! ```

use cayman::ir::interp::Memory;
use cayman::select::{run_selection, CaymanModel, DesignCache};
use cayman::workloads::Workload;
use cayman::{
    AnalyseOptions, Application, Edit, IncrementalApp, SelectOptions, SelectionResult, Solution,
};
use cayman_bench::diff::single_instr_edit;
use cayman_bench::harness::fmt_duration;
use cayman_bench::json;
use cayman_testkit::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per kernel (the minimum is reported, as in the other
/// benches — these paths are deterministic, so min is the noise floor).
const REPS: usize = 5;
/// Toggle cycles measured per kernel after warmup.
const TOGGLES: usize = 10;
/// Seeded float-immediate sites timed per kernel for the first edit.
const SITES: usize = 4;

/// Self time and count per span name over traced ops.
#[derive(Default)]
struct SpanTimes(BTreeMap<String, (u64, u64)>);

impl SpanTimes {
    /// Adds every span of `trace`: its duration less its children's, on
    /// its own thread.
    fn add(&mut self, trace: &cayman_obs::Trace) {
        use cayman_obs::EventKind;
        // Per thread, the open spans: (name, begin, time covered by
        // children).
        let mut open: BTreeMap<u32, Vec<(String, u64, u64)>> = BTreeMap::new();
        for e in &trace.events {
            let stack = open.entry(e.tid).or_default();
            match e.kind {
                EventKind::Begin => stack.push((e.name.to_string(), e.ts_nanos, 0)),
                EventKind::End => {
                    let Some((name, begin, children)) = stack.pop() else {
                        continue;
                    };
                    let dur = e.ts_nanos.saturating_sub(begin);
                    let entry = self.0.entry(name).or_default();
                    entry.0 += dur.saturating_sub(children);
                    entry.1 += 1;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                _ => {}
            }
        }
    }

    /// Total self time of the spans whose names start with `prefix`.
    fn nanos(&self, prefix: &str) -> u64 {
        self.0
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &(ns, _))| ns)
            .sum()
    }

    fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |&(_, n)| n)
    }
}

/// Traces one first edit: a fresh warm store takes `edit` and re-selects
/// with the recorder on, and every span it records is added to `into`.
fn trace_first_edit(
    w: &Workload,
    edit: &Edit,
    memory: &Memory,
    sel: &SelectOptions,
    into: &mut SpanTimes,
) {
    let mut app = IncrementalApp::new(
        w.module.clone(),
        Some(memory.clone()),
        AnalyseOptions::default(),
    );
    app.select(sel).expect("cold incremental select");
    drop(cayman_obs::drain());
    cayman_obs::enable();
    app.apply(edit.clone()).expect("applies");
    let res = app.select(sel).expect("re-selects");
    cayman_obs::disable();
    std::hint::black_box(res);
    into.add(&cayman_obs::drain());
}

struct KernelPoint {
    name: &'static str,
    cold_s: f64,
    /// Mean over the kernel's sites.
    first_edit_s: f64,
    warm_toggle_s: f64,
    /// First edits whose execution was proved instead of run.
    proved: usize,
    /// First edits whose selection the select table answered.
    select_hits: usize,
    /// First edits whose application shares the pre-edit wPST.
    wpst_shared: usize,
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

/// Batch selection over a freshly analysed application: a fresh design
/// cache and no front table.
fn batch_select(app: &Application, sel: &SelectOptions) -> SelectionResult {
    let inputs = app.inputs();
    run_selection(
        &app.module,
        &app.wpst,
        &app.profile,
        &inputs,
        sel,
        &CaymanModel(sel.model.clone()),
        &DesignCache::new(),
        None,
    )
}

/// Fresh batch analyse+select, returning the front for equivalence checks.
fn batch_front(module: cayman::ir::Module, memory: &Memory, sel: &SelectOptions) -> Vec<Solution> {
    let app = Application::analyse_with(module, Some(memory.clone()), &AnalyseOptions::default())
        .expect("corpus kernel analyses");
    batch_select(&app, sel).pareto
}

/// Times one first edit at `pick`'s site: the minimum over [`REPS`] fresh
/// warm stores, each taking the edit and re-selecting. Returns the time,
/// the edit, and the last store; the first rep's front is checked
/// bit-identical to a from-scratch pipeline on the edited module, and its
/// application must share the pre-edit wPST by pointer unless the edit
/// re-ran a structure query (a nudge can change what normalization leaves
/// of a function). The returned flag says whether it shared it.
fn first_edit(
    w: &Workload,
    pick: u64,
    memory: &Memory,
    sel: &SelectOptions,
) -> Option<(f64, Edit, IncrementalApp, bool)> {
    let edit = single_instr_edit(&w.module, pick)?;
    let Edit::ReplaceFunction { func, ref body } = edit else {
        unreachable!("single_instr_edit only replaces functions");
    };
    let opts = AnalyseOptions::default();
    let mut best = f64::INFINITY;
    let mut inc = None;
    let mut wpst_shared = false;
    for rep in 0..REPS {
        let mut app = IncrementalApp::new(w.module.clone(), Some(memory.clone()), opts.clone());
        app.select(sel).expect("cold incremental select");
        let before = app.analyse().expect("an app-table hit");
        let structure_misses = app.stats().structure.misses;
        let t0 = Instant::now();
        app.apply(edit.clone()).expect("applies");
        let res = app.select(sel).expect("re-selects");
        best = best.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            let after = app.analyse().expect("an app-table hit");
            wpst_shared = Arc::ptr_eq(&before.wpst, &after.wpst);
            assert!(
                wpst_shared || app.stats().structure.misses > structure_misses,
                "{}: the edit at site {pick} kept every function's structure \
                 but rebuilt the wPST",
                w.name
            );
            let mut edited = w.module.clone();
            edited.functions[func.index()] = body.clone();
            let fresh = batch_front(edited, memory, sel);
            assert!(
                fronts_identical(&res.pareto, &fresh),
                "{}: incremental front diverges from fresh after the edit at site {pick}",
                w.name
            );
        }
        inc = Some(app);
    }
    Some((best, edit, inc.expect("at least one rep ran"), wpst_shared))
}

/// Measures one kernel, or `None` when it has no float immediate to edit.
fn measure_kernel(
    w: &Workload,
    kernel: usize,
    smoke: bool,
    traced: &mut SpanTimes,
) -> Option<KernelPoint> {
    let memory = w.memory();
    let sel = SelectOptions::default();
    let opts = AnalyseOptions::default();

    // Cold: from-scratch analyse+select.
    let mut cold_s = f64::INFINITY;
    for _ in 0..REPS {
        let module = w.module.clone();
        let mem = memory.clone();
        let t0 = Instant::now();
        let app = Application::analyse_with(module, Some(mem), &opts).expect("analyses");
        let res = batch_select(&app, &sel);
        cold_s = cold_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(res);
    }

    // First edit: warm store, one single-instruction edit, re-select, at
    // each of the kernel's seeded sites. (Each rep rebuilds the store: the
    // first edit is a one-shot event.)
    let mut rng = Rng::new(0x1E_D175 ^ kernel as u64);
    let mut times = Vec::with_capacity(SITES);
    let (mut proved, mut select_hits, mut wpst_shared) = (0, 0, 0);
    let mut last = None;
    for _ in 0..SITES {
        let (t, edit, inc, shared) = first_edit(w, rng.next_u64(), &memory, &sel)?;
        wpst_shared += usize::from(shared);
        times.push(t);
        proved += usize::from(inc.stats().proved > 0);
        select_hits += usize::from(inc.stats().select.hits > 0);
        last = Some((edit, inc));
    }
    let first_edit_s = times.iter().sum::<f64>() / times.len() as f64;
    let (edit, mut inc) = last.expect("at least one site");
    trace_first_edit(w, &edit, &memory, &sel, traced);
    let Edit::ReplaceFunction { func, body } = edit else {
        unreachable!("single_instr_edit only replaces functions");
    };
    let edited_body = body;
    let original_body = w.module.functions[func.index()].clone();

    // Warm toggle: revert/re-apply the same edit; after one full warmup
    // cycle both module states are fully cached.
    let toggle = |app: &mut IncrementalApp, to_original: bool| -> f64 {
        let body = if to_original {
            original_body.clone()
        } else {
            edited_body.clone()
        };
        let t0 = Instant::now();
        app.apply(Edit::ReplaceFunction { func, body })
            .expect("applies");
        std::hint::black_box(app.select(&SelectOptions::default()).expect("selects"));
        t0.elapsed().as_secs_f64()
    };
    toggle(&mut inc, true);
    toggle(&mut inc, false);
    let before = *inc.stats();
    let mut warm_toggle_s = f64::INFINITY;
    for i in 0..TOGGLES {
        warm_toggle_s = warm_toggle_s.min(toggle(&mut inc, i % 2 == 0));
    }
    let after = *inc.stats();
    if smoke {
        // The warm path must be answered entirely by the app + selection
        // caches: no query body re-runs once both states are cached.
        assert_eq!(
            after.app.hits - before.app.hits,
            TOGGLES as u64,
            "{}: warm toggles must hit the whole-app cache",
            w.name
        );
        assert_eq!(
            after.select.hits - before.select.hits,
            TOGGLES as u64,
            "{}: warm toggles must hit the selection cache",
            w.name
        );
        assert_eq!(after.app.misses, before.app.misses, "{}", w.name);
    }

    Some(KernelPoint {
        name: w.name,
        cold_s,
        first_edit_s,
        warm_toggle_s,
        proved,
        select_hits,
        wpst_shared,
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn stats_of(mut vals: Vec<f64>) -> (f64, f64, f64, f64, f64) {
    vals.sort_by(f64::total_cmp);
    (
        percentile(&vals, 0.0),
        percentile(&vals, 0.25),
        percentile(&vals, 0.5),
        percentile(&vals, 0.75),
        percentile(&vals, 1.0),
    )
}

fn metric_json(o: &mut json::Obj, name: &str, vals: Vec<f64>) {
    let (min, p25, med, p75, max) = stats_of(vals);
    o.obj(name, |o| {
        o.f64("min_s", min, 9);
        o.f64("p25_s", p25, 9);
        o.f64("median_s", med, 9);
        o.f64("p75_s", p75, 9);
        o.f64("max_s", max, 9);
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut workloads = cayman::workloads::full();
    if smoke {
        workloads.truncate(20);
    }
    let total = workloads.len();

    let mut points = Vec::new();
    let mut skipped = 0usize;
    let mut traced = SpanTimes::default();
    for (i, w) in workloads.iter().enumerate() {
        match measure_kernel(w, i, smoke, &mut traced) {
            Some(p) => points.push(p),
            None => skipped += 1,
        }
    }
    assert!(
        !points.is_empty(),
        "no corpus kernel had a float immediate to edit"
    );
    if skipped > 0 {
        println!("# incremental: {skipped}/{total} kernels skipped (no float-immediate edit site)");
    }

    let (_, _, cold_med, _, _) = stats_of(points.iter().map(|p| p.cold_s).collect());
    let (_, _, first_med, _, _) = stats_of(points.iter().map(|p| p.first_edit_s).collect());
    let (_, _, warm_med, _, _) = stats_of(points.iter().map(|p| p.warm_toggle_s).collect());
    let speedup_first = cold_med / first_med.max(1e-12);
    let speedup_warm = cold_med / warm_med.max(1e-12);
    let proved: usize = points.iter().map(|p| p.proved).sum();
    let select_hits: usize = points.iter().map(|p| p.select_hits).sum();
    let wpst_shared: usize = points.iter().map(|p| p.wpst_shared).sum();
    let edits = points.len() * SITES;
    let normalize_share = traced.nanos("normalize.") as f64 / traced.nanos("").max(1) as f64;
    let pipelines = traced.count("normalize.pipeline");
    let gvn_per_function = traced.count("normalize.gvn") as f64 / pipelines.max(1) as f64;
    let per_edit_us = |span| traced.nanos(span) as f64 / 1e3 / points.len() as f64;
    let profile_us = per_edit_us("analyse.profile");
    let dataflow_us = per_edit_us("analyse.dataflow");
    println!(
        "# incremental over {} kernels × {SITES} sites: cold {} | first edit {} \
         ({speedup_first:.1}x; of {edits} edits {proved} proved without a run, \
         {select_hits} answered by the select table, {wpst_shared} shared the pre-edit wPST) \
         | warm toggle {} ({speedup_warm:.1}x)",
        points.len(),
        fmt_duration(cold_med),
        fmt_duration(first_med),
        fmt_duration(warm_med),
    );
    println!(
        "# traced first edits: normalize.* spans take {:.1}% of the self time; \
         {pipelines} functions normalized, {gvn_per_function:.2} gvn runs each; \
         analyse.profile {profile_us:.2} µs and analyse.dataflow {dataflow_us:.2} µs \
         self time per edit",
        100.0 * normalize_share
    );

    if smoke {
        assert!(
            warm_med < cold_med,
            "warm toggle ({warm_med}s) must beat cold analyse+select ({cold_med}s)"
        );
        println!(
            "smoke mode: fronts bit-identical, warm toggles fully cache-hit; \
             BENCH_incremental.json left untouched"
        );
        return;
    }

    if speedup_warm < 50.0 {
        eprintln!(
            "WARNING: warm-toggle re-selection speedup {speedup_warm:.1}x below the 50x target"
        );
    }
    if first_med >= 1e-3 {
        eprintln!(
            "WARNING: median first-edit re-selection {} is not sub-millisecond",
            fmt_duration(first_med)
        );
    }

    let out = json::document(|o| {
        o.str("bench", "incremental");
        json::host(o);
        o.str(
            "note",
            "per-kernel minimum over repeated runs; cold = from-scratch analyse+select, \
             first_edit = apply+select of one single-instruction edit against a warm query \
             store, the mean over sites_per_kernel seeded float-immediate sites per kernel \
             (whole-module execution re-runs unless the slice proof shows the block \
             counts and return value unchanged, first_edits_proved counts those; the \
             selection re-runs unless every front key is unchanged, \
             first_edits_select_hits counts those; first_edits_wpst_shared counts the \
             edits whose application holds the pre-edit wPST itself), warm_toggle = apply+select toggling \
             between two cached module states (pure content-hash hits); \
             traced_first_edit: one more first edit per kernel with the recorder on, \
             untimed, where normalize_share is the self time of the normalize.* spans \
             over the self time of every span, gvn_runs_per_function counts \
             normalize.gvn spans per normalize.pipeline span, and \
             analyse_{profile,dataflow}_self_us_per_edit are those spans' self time \
             per traced edit",
        );
        o.u64("kernels_measured", points.len() as u64);
        o.u64("sites_per_kernel", SITES as u64);
        o.u64("first_edits_proved", proved as u64);
        o.u64("first_edits_select_hits", select_hits as u64);
        o.u64("first_edits_wpst_shared", wpst_shared as u64);
        o.u64("kernels_skipped_no_edit_site", skipped as u64);
        metric_json(o, "cold", points.iter().map(|p| p.cold_s).collect());
        metric_json(
            o,
            "first_edit",
            points.iter().map(|p| p.first_edit_s).collect(),
        );
        metric_json(
            o,
            "warm_toggle",
            points.iter().map(|p| p.warm_toggle_s).collect(),
        );
        o.f64("speedup_first_edit_median", speedup_first, 1);
        o.obj("traced_first_edit", |o| {
            o.f64("normalize_share", normalize_share, 4);
            o.u64("functions_normalized", pipelines);
            o.f64("gvn_runs_per_function", gvn_per_function, 3);
            o.f64("analyse_profile_self_us_per_edit", profile_us, 3);
            o.f64("analyse_dataflow_self_us_per_edit", dataflow_us, 3);
        });
        o.f64("speedup_warm_toggle_median", speedup_warm, 1);
        o.arr("slowest_first_edit", |a| {
            let mut by_first: Vec<&KernelPoint> = points.iter().collect();
            by_first.sort_by(|x, y| y.first_edit_s.total_cmp(&x.first_edit_s));
            for p in by_first.iter().take(5) {
                a.obj(|o| {
                    o.str("name", p.name);
                    o.f64("cold_s", p.cold_s, 9);
                    o.f64("first_edit_s", p.first_edit_s, 9);
                    o.f64("warm_toggle_s", p.warm_toggle_s, 9);
                });
            }
        });
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_incremental.json");
    std::fs::write(&path, out).expect("write BENCH_incremental.json");
    println!("wrote {}", path.display());
}
