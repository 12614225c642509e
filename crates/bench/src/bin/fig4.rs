//! Regenerates **Fig. 4**: the impact of data-access interfaces on
//! accelerator latency under three control-flow implementations of the
//! `y[i] = k·x[i] + b` loop:
//!
//! * **sequential loop** — per-iteration latency, coupled vs decoupled
//!   (paper: `6N` → `4N`),
//! * **loop pipelining** — achieved II, coupled vs decoupled
//!   (paper: II `3` → `1`),
//! * **loop unrolling ×2 (+ pipelining)** — per-pair initiation, coupled vs
//!   scratchpad with banking (paper: `9(N/2)` → `4(N/2)`).
//!
//! Interfaces are *forced* per column (this figure illustrates the interface
//! model itself, not the selection heuristic). Absolute cycle counts differ
//! from the paper's illustration; the orderings and linear-in-N scaling are
//! the reproduced shape.
//!
//! ```text
//! cargo run --release -p cayman-bench --bin fig4 [-- -O0|-O1|-O2]
//! ```

use cayman::hls::inputs::{Candidate, RegionInputs};
use cayman::hls::interface::InterfaceSpec;
use cayman::hls::pipeline::{pipeline_loop, LoopModel};
use cayman::hls::schedule::schedule_block;
use cayman::ir::builder::ModuleBuilder;
use cayman::ir::instr::Instr;
use cayman::ir::{FuncId, InstrId, Type};
use cayman::Framework;

fn saxpy(n: i64) -> cayman::ir::Module {
    let mut mb = ModuleBuilder::new("fig4");
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

fn main() {
    let analyse = cayman_bench::analyse_options_from_args();
    cayman_obs::init_from_env();
    println!("Fig. 4 — data-access interface impact on `y[i] = k*x[i]+b`");
    println!(
        "{:>6} | {:>11} {:>11} | {:>8} {:>8} | {:>11} {:>11}",
        "N", "seq-coup", "seq-dec", "II-coup", "II-dec", "u2-coup", "u2-spad"
    );
    for n in [64i64, 128, 256, 512, 1024] {
        let fw = Framework::from_module_with(saxpy(n), &analyse).expect("analyses");
        let inputs = fw.app.inputs();
        let inp = &inputs[0];
        let func = inp.func();
        let ctx = &fw.app.wpst.func_ctxs[0];
        let l = ctx.forest.ids().next().expect("one loop");
        let body_bb = ctx.forest.get(l).blocks[1]; // header, body, ...
                                                   // The loop as an acceleration candidate: the model reads through it.
        let cand = Candidate {
            func: FuncId(0),
            blocks: ctx.forest.get(l).blocks.clone(),
            entries: 1,
            cpu_cycles: fw.app.total_cycles(),
            is_bb: false,
        };
        let r = &RegionInputs::new(inp, &cand);

        let force = |s: InterfaceSpec| {
            move |i: InstrId| {
                if matches!(func.instr(i), Instr::Load { .. } | Instr::Store { .. }) {
                    Some(s)
                } else {
                    Some(InterfaceSpec::coupled())
                }
            }
        };
        let coupled = force(InterfaceSpec::coupled());
        let decoupled = force(InterfaceSpec::decoupled());
        let spad = force(InterfaceSpec::scratchpad(2));

        // Sequential loop: N × per-iteration schedule length.
        let seq_coup = n as u64 * schedule_block(r, body_bb, &coupled, 1).length;
        let seq_dec = n as u64 * schedule_block(r, body_bb, &decoupled, 1).length;

        // Pipelined loop: achieved II.
        let pc = pipeline_loop(r, l, 1, &coupled);
        let pd = pipeline_loop(r, l, 1, &decoupled);

        // Unrolled ×2 (+ pipelined): total cycles per loop entry.
        let uc = pipeline_loop(r, l, 2, &coupled);
        let us = pipeline_loop(r, l, 2, &spad);

        println!(
            "{:>6} | {:>11} {:>11} | {:>8} {:>8} | {:>11.0} {:>11.0}",
            n, seq_coup, seq_dec, pc.ii, pd.ii, uc.cycles_per_entry, us.cycles_per_entry
        );
        // sanity: resMII drives the coupled pipelined case
        debug_assert!({
            let model = LoopModel::new(r, l);
            let specs: Vec<_> = model
                .mem_instrs()
                .map(|_| InterfaceSpec::coupled())
                .collect();
            model.res_mii(&specs, 1) >= 2
        });
    }
    println!();
    println!("expected shape (paper): sequential 6N → 4N; pipelined II 3 → 1;");
    println!("unrolled-by-2 coupled ≫ scratchpad (9(N/2) → 4(N/2) in the paper's units).");
    cayman_bench::flush_obs_outputs();
}
