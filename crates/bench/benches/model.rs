//! Benches for the accelerator model (§III-C), on the dependency-free
//! `cayman_bench::harness`:
//!
//! * `fig4_model` — the interface-impact computation behind Fig. 4
//!   (pipeline II + latency under each interface),
//! * `design_generation/*` — `accel(v, R)` cost per candidate, with a
//!   β-sweep ablation of the scratchpad heuristic,
//! * `merging` — the greedy §III-E merge on a multi-kernel solution (3mm),
//! * `corpus` — the tracked shape: per-call nanoseconds of each model
//!   (Cayman's default model, NOVIA, QsCores) over every candidate the
//!   selection DP would model in all 132 workloads at `-O1`. Each rep times
//!   one pass per model over every candidate, the models in rotating order;
//!   a model's per-call time is the median over reps of pass time / calls.
//!   Written to `BENCH_model.json`.
//!
//! ```text
//! cargo bench -p cayman-bench --bench model              # every bench, writes BENCH_model.json
//! cargo bench -p cayman-bench --bench model -- --smoke   # CI: corpus shape on one kernel per suite, no JSON
//! ```

use cayman::baselines::{NoviaModel, QsCoresModel};
use cayman::hls::design::{generate_designs, AcceleratorDesign};
use cayman::hls::inputs::{Candidate, FuncInputs, RegionInputs};
use cayman::hls::interface::{InterfaceSpec, ModelOptions};
use cayman::hls::pipeline::pipeline_loop;
use cayman::ir::builder::ModuleBuilder;
use cayman::ir::{FuncId, InstrId, Type};
use cayman::select::{AccelModel, CaymanModel};
use cayman::{Framework, SelectOptions};
use cayman_bench::harness::{fmt_duration, run};
use cayman_bench::json;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Passes per model in the `corpus` shape (the median is reported).
const CORPUS_REPS: usize = 11;

fn saxpy(n: i64) -> cayman::ir::Module {
    let mut mb = ModuleBuilder::new("saxpy");
    let x = mb.array("x", Type::F64, &[n as usize]);
    let y = mb.array("y", Type::F64, &[n as usize]);
    mb.function("main", &[], None, |fb| {
        fb.counted_loop(0, n, 1, |fb, i| {
            let xv = fb.load_idx(x, &[i]);
            let t = fb.fmul(fb.fconst(3.0), xv);
            let v = fb.fadd(t, fb.fconst(1.0));
            fb.store_idx(y, &[i], v);
        });
        fb.ret(None);
    });
    mb.finish()
}

fn bench_fig4_model() {
    let fw = Framework::from_module(saxpy(256)).expect("analyses");
    let inputs = fw.app.inputs();
    let inp = &inputs[0];
    let ctx = &fw.app.wpst.func_ctxs[0];
    let l = ctx.forest.ids().next().expect("loop");
    let cand = Candidate {
        func: FuncId(0),
        blocks: ctx.forest.get(l).blocks.clone(),
        entries: 1,
        cpu_cycles: fw.app.total_cycles(),
        is_bb: false,
    };
    let r = &RegionInputs::new(inp, &cand);
    let dec = |_: InstrId| Some(InterfaceSpec::decoupled());
    run("fig4_model", || pipeline_loop(r, l, 2, &dec));
}

fn bench_design_generation() {
    println!("# design_generation — beta sweep of the scratchpad heuristic");
    let fw = Framework::from_module(saxpy(256)).expect("analyses");
    let inputs = fw.app.inputs();
    let inp = &inputs[0];
    let ctx = &fw.app.wpst.func_ctxs[0];
    let l = ctx.forest.ids().next().expect("loop");
    let cand = Candidate {
        func: FuncId(0),
        blocks: ctx.forest.get(l).blocks.clone(),
        entries: 1,
        cpu_cycles: fw.app.total_cycles(),
        is_bb: false,
    };
    for beta in [2.0f64, 4.0, 8.0] {
        let opts = ModelOptions {
            beta,
            ..Default::default()
        };
        run(&format!("design_generation/beta={beta}"), || {
            generate_designs(inp, &cand, &opts)
        });
    }
}

fn bench_merging() {
    let w = cayman::workloads::by_name("3mm").expect("exists");
    let fw = Framework::from_workload(&w).expect("analyses");
    let res = fw.select(&SelectOptions::default());
    let sol = res.pareto.last().expect("solutions").clone();
    run("merging_3mm", || fw.merge(&sol));
}

/// Every candidate the selection DP would hand a model: accelerable wPST
/// regions with a non-empty profile, built as `accel(v, R)` builds them.
fn candidates(fw: &Framework) -> Vec<Candidate> {
    let app = &fw.app;
    app.wpst
        .ids()
        .filter_map(|v| {
            let (region, func) = app.wpst.region(v)?;
            let rp = app.profile.of(v);
            (region.accelerable && rp.entries > 0 && rp.cycles > 0).then(|| Candidate {
                func,
                blocks: region.blocks.clone(),
                entries: rp.entries,
                cpu_cycles: rp.cycles,
                is_bb: app.wpst.is_bb(v),
            })
        })
        .collect()
}

/// One model's `corpus` measurement.
struct ModelPoint {
    name: &'static str,
    designs: usize,
    /// Per-call nanoseconds of each rep's pass.
    per_call_ns: Vec<f64>,
}

impl ModelPoint {
    fn quantile(&self, q: f64) -> f64 {
        let mut v = self.per_call_ns.clone();
        v.sort_by(f64::total_cmp);
        v[((v.len() - 1) as f64 * q).round() as usize]
    }
}

/// Calls `model` on every candidate of every framework once; returns the
/// designs made.
fn pass(model: &dyn AccelModel, corpus: &[(Vec<FuncInputs<'_>>, &[Candidate])]) -> usize {
    let mut designs = 0;
    for (inputs, cands) in corpus {
        for cand in *cands {
            let out: Vec<AcceleratorDesign> = model.designs(&inputs[cand.func.index()], cand);
            designs += black_box(out).len();
        }
    }
    designs
}

fn bench_corpus(smoke: bool) -> (usize, usize, Vec<ModelPoint>) {
    let mut seen_suites = Vec::new();
    let workloads: Vec<_> = cayman::workloads::full()
        .into_iter()
        .filter(|w| {
            let first = !seen_suites.contains(&w.suite);
            seen_suites.push(w.suite);
            !smoke || first
        })
        .collect();
    let fws: Vec<(Framework, Vec<Candidate>)> = workloads
        .iter()
        .map(|w| {
            let fw = Framework::from_workload(w).expect("analyses");
            let cands = candidates(&fw);
            (fw, cands)
        })
        .collect();
    let corpus: Vec<(Vec<FuncInputs<'_>>, &[Candidate])> = fws
        .iter()
        .map(|(fw, cands)| (fw.app.inputs(), cands.as_slice()))
        .collect();
    let calls: usize = corpus.iter().map(|(_, c)| c.len()).sum();
    let models: [(&'static str, &dyn AccelModel); 3] = [
        ("cayman", &CaymanModel(Default::default())),
        ("novia", &NoviaModel),
        ("qscores", &QsCoresModel),
    ];
    let mut points: Vec<ModelPoint> = models
        .iter()
        .map(|&(name, model)| ModelPoint {
            name,
            designs: pass(model, &corpus), // warm-up; also fixes the design count
            per_call_ns: Vec::new(),
        })
        .collect();
    let reps = if smoke { 1 } else { CORPUS_REPS };
    for rep in 0..reps {
        for k in 0..models.len() {
            let m = (rep + k) % models.len();
            let t0 = Instant::now();
            let designs = pass(models[m].1, &corpus);
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(designs, points[m].designs, "{}: design count", models[m].0);
            points[m].per_call_ns.push(ns / calls.max(1) as f64);
        }
    }
    for p in &points {
        println!(
            "{:<36} median {:>10} per call over {} calls ({} designs, {} reps)",
            format!("corpus/{}", p.name),
            fmt_duration(p.quantile(0.5) * 1e-9),
            calls,
            p.designs,
            p.per_call_ns.len()
        );
    }
    (workloads.len(), calls, points)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let (_, calls, points) = bench_corpus(true);
        assert!(calls > 0 && points.iter().all(|p| p.designs > 0));
        println!(
            "smoke mode: every model ran on one kernel per suite; BENCH_model.json left untouched"
        );
        return;
    }
    bench_fig4_model();
    bench_design_generation();
    bench_merging();
    let (kernels, calls, points) = bench_corpus(false);
    let out = json::document(|o| {
        o.str("bench", "model");
        json::host(o);
        o.str(
            "note",
            "corpus: every accelerable, profiled wPST region of every workload at -O1, modeled \
             as accel(v, R) models it, by each model in turn; per_call_ns is pass time over \
             calls, one pass per model per rep, models in rotating order; median and \
             quartiles over reps",
        );
        o.u64("kernels", kernels as u64);
        o.u64("calls", calls as u64);
        o.u64("reps", CORPUS_REPS as u64);
        o.arr("models", |a| {
            for p in &points {
                a.obj(|o| {
                    o.str("model", p.name);
                    o.u64("designs", p.designs as u64);
                    o.f64("per_call_ns_median", p.quantile(0.5), 1);
                    o.f64("per_call_ns_p25", p.quantile(0.25), 1);
                    o.f64("per_call_ns_p75", p.quantile(0.75), 1);
                });
            }
        });
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_model.json");
    std::fs::write(&path, out).expect("write BENCH_model.json");
    println!("wrote {}", path.display());
}
