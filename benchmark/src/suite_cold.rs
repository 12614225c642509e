//! `suite-cold`: the paper's batch use (Table II).
//!
//! Seeded-shuffled passes over all 132 kernels of `workloads::full()`. One
//! op is `Framework::from_workload_with` at `-O1`, `select` with two threads
//! (the Table II default on a two-core host), `select_novia`,
//! `select_qscores`, and `report` at 25% and 65% of the CVA6 tile. Every
//! pipeline layer runs cold; the incremental store, the disk store and the
//! server do nothing. After every second of the run the host-speed probe
//! runs between two ops ([`crate::speed`]).
//!
//! Traced runs alternate untraced and traced passes. Traced ops wrap each
//! facade call in a span and time model calls through a delegating
//! [`AccelModel`]; after each traced op a stage replay re-runs the analyse
//! sub-stages through the `ir` and `analysis` public functions, in the
//! order `core::inc` assembles them, and must reproduce the facade's
//! application bit for bit.

use crate::golden::{front_digest, geomean, Golden};
use crate::report::Report;
use crate::rng::Rng;
use crate::speed::{put_ops, Issued, Pacer};
use crate::trace::{Recorder, SelfTimes};
use crate::{analyse_opts, put_checks, put_layer, put_peak_rss, select_opts, timed_setup, Ctx};
use cayman::analysis::access::trip_count;
use cayman::analysis::{
    analyse_loop_deps, AccessAnalysis, FuncCtx, Profile, RegionTree, Scev, Wpst,
};
use cayman::hls::design::AcceleratorDesign;
use cayman::hls::inputs::{Candidate, FuncInputs};
use cayman::ir::decode_function;
use cayman::ir::interp::Interp;
use cayman::ir::transform::normalize_function;
use cayman::select::{AccelModel, CaymanModel, ModelId};
use cayman::workloads::Workload;
use cayman::{Framework, OptLevel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Select threads per op: the Table II default on a two-core host.
const SELECT_THREADS: usize = 2;

/// Times every model call as an `hls.model` span. Keeps the wrapped model's
/// cache identity, so design caching behaves exactly as untraced.
struct TimedModel<'a> {
    inner: CaymanModel,
    rec: &'a Recorder,
    parent: u32,
    op: u64,
    calls: AtomicU64,
}

impl AccelModel for TimedModel<'_> {
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign> {
        let span = self.rec.open("hls.model", self.parent, self.op);
        let designs = self.inner.designs(inputs, cand);
        self.rec.close(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        designs
    }

    fn cache_id(&self) -> Option<ModelId> {
        self.inner.cache_id()
    }
}

/// What a traced op's outputs add to the per-layer counts.
#[derive(Default)]
struct Counts {
    ops: u64,
    wall_ns: f64,
    model_calls: u64,
    visited: u64,
    model_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
    blocks: u64,
}

/// The analyse sub-stages, replayed through the public stage functions.
/// Returns the executed block count; fails when any stage output differs
/// from the facade's application.
fn replay(w: &Workload, fw: &Framework, rec: &Recorder, op: u64) -> Result<u64, String> {
    let root = rec.open("replay", 0, op);
    let stage = |name| rec.open(name, root.id, op);
    let err = |e: &dyn std::fmt::Display| format!("{}: replay failed: {e}", w.name);

    let s = stage("ir.verify");
    w.module.verify().map_err(|e| err(&e))?;
    rec.close(s);

    let mut m = w.module.clone();
    let s = stage("ir.normalize");
    for f in w.module.function_ids() {
        normalize_function(&mut m, f, OptLevel::O1, false).map_err(|e| err(&e))?;
    }
    rec.close(s);

    let s = stage("analysis.structure");
    let (mut trees, mut ctxs) = (Vec::new(), Vec::new());
    for f in m.function_ids() {
        let ctx = FuncCtx::compute(m.function(f));
        trees.push(RegionTree::build(m.function(f), &ctx));
        ctxs.push(ctx);
    }
    let wpst = Wpst::from_parts(trees, ctxs);
    rec.close(s);

    let s = stage("ir.decode");
    let decoded = m.function_ids().map(|f| decode_function(&m, f)).collect();
    rec.close(s);

    let memory = w.memory();
    let s = stage("ir.exec");
    let mut interp = Interp::from_cached_decode(&m, decoded);
    interp.memory = memory.clone();
    let exec = interp.run(&[]).map_err(|e| err(&e))?;
    rec.close(s);

    let s = stage("analysis.profile");
    let profile = Profile::aggregate(&m, &wpst, &exec);
    rec.close(s);

    let s = stage("analysis.dataflow");
    let mut dataflow = Vec::new();
    for f in m.function_ids() {
        let (func, ctx) = (m.function(f), &wpst.func_ctxs[f.index()]);
        let mut scev = Scev::new(func, ctx);
        let aa = AccessAnalysis::run(&m, func, ctx, &mut scev);
        let deps = analyse_loop_deps(func, ctx, &mut scev, &aa);
        dataflow.push((aa, deps));
    }
    rec.close(s);

    let s = stage("analysis.trips");
    let trips: Vec<Vec<f64>> = m
        .function_ids()
        .map(|f| {
            wpst.func_ctxs[f.index()]
                .forest
                .ids()
                .map(|l| trip_count(&wpst, &profile, m.function(f), f, l).unwrap_or(1.0))
                .collect()
        })
        .collect();
    rec.close(s);
    rec.close(root);

    let app = &fw.app;
    let bits = |t: &[Vec<f64>]| -> Vec<Vec<u64>> {
        t.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let same = m.to_text() == app.module.to_text()
        && profile.block_counts == app.profile.block_counts
        && profile.total_cycles == app.profile.total_cycles
        && format!("{:?}", exec.return_value) == format!("{:?}", app.exec.return_value)
        && bits(&trips) == bits(&app.trips)
        && dataflow
            .iter()
            .zip(app.accesses.iter().zip(&app.deps))
            .all(|((aa, dd), (fa, fd))| format!("{aa:?}{dd:?}") == format!("{fa:?}{fd:?}"));
    if same && dataflow.len() == app.accesses.len() {
        Ok(exec.blocks_executed())
    } else {
        Err(format!("{}: stage replay diverges from the facade", w.name))
    }
}

pub fn run(ctx: &Ctx, rec: &Recorder) -> Report {
    let mut r = Report::new("suite-cold", ctx.seed, ctx.seconds, ctx.trace);
    let golden = Golden::load();
    let ws = timed_setup(&mut r, |_| cayman::workloads::full());
    let (o1, sel) = (analyse_opts(), select_opts(SELECT_THREADS));
    r.param("kernels", ws.len());
    r.param("select_threads", SELECT_THREADS);
    r.param("budgets", "0.25,0.65");

    let mut rng = Rng::stream(ctx.seed, 0);
    let mut order: Vec<usize> = (0..ws.len()).collect();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut speedups = vec![None; ws.len()];
    let (mut layers, mut stages) = (SelfTimes::new(), SelfTimes::new());
    let mut counts = Counts::default();
    let (mut op, mut passes) = (0u64, 0u64);
    let deadline = Duration::from_secs(ctx.seconds);
    let start = Instant::now();
    let pacer = Pacer::new(1, start, deadline);
    let mut seat = pacer.seat();
    // Whole passes only, so every kernel weighs the same in every run.
    while start.elapsed() < deadline {
        rng.shuffle(&mut order);
        let traced = ctx.trace && passes % 2 == 1;
        for &k in &order {
            seat.between_ops();
            op += 1;
            r.attempted += 1;
            let w = &ws[k];
            let t0 = Instant::now();
            let out = if traced {
                let root = rec.open("suite-cold.op", 0, op);
                let s = rec.open("core.analyse", root.id, op);
                let fw = Framework::from_workload_with(w, &o1);
                rec.close(s);
                fw.map(|fw| {
                    let s = rec.open("select", root.id, op);
                    let model = TimedModel {
                        inner: CaymanModel(sel.model.clone()),
                        rec,
                        parent: s.id,
                        op,
                        calls: AtomicU64::new(0),
                    };
                    let res = fw.select_with(&sel, &model);
                    rec.close(s);
                    counts.model_calls += model.calls.load(Ordering::Relaxed);
                    let s = rec.open("baselines.novia", root.id, op);
                    let novia = fw.select_novia(&sel);
                    rec.close(s);
                    let s = rec.open("baselines.qscores", root.id, op);
                    let qscores = fw.select_qscores(&sel);
                    rec.close(s);
                    let s = rec.open("merge", root.id, op);
                    let reports = (fw.report(&res, 0.25), fw.report(&res, 0.65));
                    rec.close(s);
                    counts.wall_ns += rec.close(root) as f64;
                    (fw, res, novia, qscores, reports)
                })
            } else {
                Framework::from_workload_with(w, &o1).map(|fw| {
                    let res = fw.select(&sel);
                    let novia = fw.select_novia(&sel);
                    let qscores = fw.select_qscores(&sel);
                    let reports = (fw.report(&res, 0.25), fw.report(&res, 0.65));
                    (fw, res, novia, qscores, reports)
                })
            };
            let secs = t0.elapsed().as_secs_f64();
            let Ok((fw, res, _novia, _qscores, (r25, r65))) = out else {
                r.failed += 1;
                continue;
            };
            let row = golden.row(w.name);
            if front_digest(&res.pareto) != row.mem
                || r25.speedup.to_bits() != row.b25.to_bits()
                || r65.speedup.to_bits() != row.b65.to_bits()
            {
                r.mismatches += 1;
            }
            speedups[k] = Some((r25.speedup, r65.speedup));
            if !traced {
                busy_s += secs;
                untraced_ms.push(secs * 1e3);
                continue;
            }
            traced_ms.push(secs * 1e3);
            rec.finish_op(op, &mut layers);
            counts.ops += 1;
            counts.visited += res.visited as u64;
            counts.model_evals += res.stats.configs_evaluated as u64;
            counts.cache_hits += res.stats.cache_hits;
            counts.cache_misses += res.stats.cache_misses;
            match replay(w, &fw, rec, op) {
                Ok(blocks) => counts.blocks += blocks,
                Err(e) => r.problems.push(e),
            }
            rec.finish_op(op, &mut stages);
        }
        passes += 1;
    }
    put_peak_rss(&mut r);
    r.param("passes", passes);

    let issued = Issued {
        ops: untraced_ms.len(),
        busy_s,
        latency_ms: &untraced_ms,
    };
    put_ops(&mut r, ctx, &pacer, &[issued]);
    if let Some(s) = speedups.iter().copied().collect::<Option<Vec<_>>>() {
        let geo25 = geomean(s.iter().map(|x| x.0));
        let geo65 = geomean(s.iter().map(|x| x.1));
        r.put("speedup_geo_b25", geo25, "x");
        r.put("speedup_geo_b65", geo65, "x");
        if geo25.to_bits() != golden.geo_b25().to_bits()
            || geo65.to_bits() != golden.geo_b65().to_bits()
        {
            r.problems
                .push("Table II geomean speedups differ from golden".to_string());
        }
    }
    if ctx.trace {
        put_layers(
            &mut r,
            &layers,
            &stages,
            &counts,
            &mut traced_ms,
            &mut untraced_ms,
        );
    }
    put_checks(&mut r);
    r
}

fn put_layers(
    r: &mut Report,
    layers: &SelfTimes,
    stages: &SelfTimes,
    c: &Counts,
    traced_ms: &mut [f64],
    untraced_ms: &mut [f64],
) {
    let ns = |t: &SelfTimes, k: &str| t.get(k).copied().unwrap_or(0) as f64;
    let mut covered = 0.0;
    for (span, layer) in [
        ("core.analyse", "core.analyse"),
        ("select", "select"),
        ("hls.model", "hls.model"),
        ("baselines.novia", "baselines.novia"),
        ("baselines.qscores", "baselines.qscores"),
        ("merge", "merge"),
    ] {
        covered += ns(layers, span);
        put_layer(r, layer, ns(layers, span), c.ops, c.wall_ns);
    }
    // The replay breaks core.analyse down further; it runs outside the op,
    // so these shares are not part of the coverage sum.
    for stage in [
        "ir.verify",
        "ir.normalize",
        "ir.decode",
        "ir.exec",
        "analysis.structure",
        "analysis.profile",
        "analysis.dataflow",
        "analysis.trips",
    ] {
        put_layer(r, stage, ns(stages, stage), c.ops, c.wall_ns);
    }
    let per_op = |n: u64| crate::stats::ratio(n as f64, c.ops as f64);
    r.put("ir.exec.blocks", per_op(c.blocks), "count/op");
    r.put("hls.model.calls", per_op(c.model_calls), "count/op");
    r.put("select.visited", per_op(c.visited), "count/op");
    r.put("select.model_evals", per_op(c.model_evals), "count/op");
    r.put(
        "select.cache_hit_ratio",
        crate::stats::ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        "ratio",
    );
    r.put(
        "harness.coverage",
        crate::stats::ratio(covered, c.wall_ns),
        "ratio",
    );
    crate::put_overhead(r, traced_ms, untraced_ms);
}
