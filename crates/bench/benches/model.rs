//! Benches for the accelerator model (§III-C), on the dependency-free
//! `cayman_bench::harness`:
//!
//! * `fig4_model` — the interface-impact computation behind Fig. 4
//!   (pipeline II + latency under each interface),
//! * `design_generation/*` — `accel(v, R)` cost per candidate, with a
//!   β-sweep ablation of the scratchpad heuristic,
//! * `merging` — the greedy §III-E merge on a multi-kernel solution (3mm).
//!
//! ```text
//! cargo bench -p cayman-bench --bench model
//! ```

use cayman::hls::design::generate_designs;
use cayman::hls::inputs::{Candidate, RegionInputs};
use cayman::hls::interface::{InterfaceSpec, ModelOptions};
use cayman::hls::pipeline::pipeline_loop;
use cayman::ir::builder::ModuleBuilder;
use cayman::ir::{FuncId, InstrId, Type};
use cayman::{Framework, SelectOptions};
use cayman_bench::harness::run;

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

fn main() {
    bench_fig4_model();
    bench_design_generation();
    bench_merging();
}
