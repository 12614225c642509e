//! The QsCores baseline: off-core accelerators with sequential control and a
//! slow scan-chain data-access interface.
//!
//! QsCores ("quasi-specific cores") extract whole regions — control flow and
//! memory access included — but synthesise *sequential* control logic: one
//! basic block at a time, each scheduled on a time-shared datapath, with no
//! loop pipelining or unrolling. Memory operations traverse a scan-chain
//! interface "characterized by high latency and low bandwidth" (§II-B): every
//! load pays a long round-trip and accesses serialise on the single chain.

use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::{Candidate, FuncInputs, RegionInputs};
use cayman_hls::interface::InterfaceSpec;
use cayman_hls::oplib::{accel_latency, fu_area, fu_class, FuClass, FSM_STATE_AREA, REG_AREA};
use cayman_hls::schedule::critical_path_with;
use cayman_ir::instr::Instr;
use cayman_ir::{InstrId, IrView};
use cayman_select::{AccelModel, ModelId};
use std::collections::BTreeMap;

/// Scan-chain load latency in accelerator cycles.
pub const SCAN_LOAD_LATENCY: u64 = 3;
/// Scan-chain store latency in accelerator cycles.
pub const SCAN_STORE_LATENCY: u64 = 2;
/// Area of the scan-chain interface (one per accelerator).
pub const SCAN_CHAIN_AREA: f64 = 1_000.0;
/// Offload/synchronisation cycles per invocation (scan-in of live values,
/// start, scan-out of results).
pub const QSCORES_INVOKE_CYCLES: f64 = 40.0;

/// The QsCores accelerator model.
#[derive(Debug, Clone, Copy, Default)]
pub struct QsCoresModel;

impl AccelModel for QsCoresModel {
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign> {
        if cand.entries == 0 {
            return Vec::new();
        }
        // Reads through the candidate's read set, like Cayman's model: the
        // shared design cache keys both on it.
        let r = &RegionInputs::new(inputs, cand);

        let latency = |i: InstrId| -> u64 {
            match r.instr(i) {
                Instr::Load { .. } => SCAN_LOAD_LATENCY,
                Instr::Store { .. } => SCAN_STORE_LATENCY,
                other => accel_latency(other),
            }
        };

        let mut accel_cycles = 0.0f64;
        let mut states = 0u64;
        let mut seq_blocks = 0usize;
        let mut classes: BTreeMap<FuClass, f64> = BTreeMap::new();
        let mut regs = 0.0f64;
        let mut interfaces: Vec<(InstrId, InterfaceSpec)> = Vec::new();

        for &b in &cand.blocks {
            let instrs = &r.block(b).instrs;
            let cp = critical_path_with(r, instrs, &latency);
            // Scan-chain bandwidth: one access in flight at a time — the
            // block cannot finish faster than the serialised accesses.
            let mem_serial: u64 = instrs
                .iter()
                .filter(|&&i| matches!(r.instr(i), Instr::Load { .. } | Instr::Store { .. }))
                .map(|&i| latency(i))
                .sum();
            let len = cp.max(mem_serial).max(1);
            accel_cycles += r.count(b) as f64 * len as f64;
            states += len;
            let mut nontrivial = false;
            for &i in instrs {
                let instr = r.instr(i);
                if !matches!(instr, Instr::Phi { .. }) {
                    nontrivial = true;
                }
                if let Some(c) = fu_class(instr) {
                    let e = classes.entry(c).or_insert(0.0);
                    *e = e.max(fu_area(c));
                }
                regs += REG_AREA;
                if matches!(instr, Instr::Load { .. } | Instr::Store { .. }) {
                    // QsCores' slow interface is closest to "coupled" in the
                    // taxonomy; counted for reporting symmetry.
                    interfaces.push((i, InterfaceSpec::coupled()));
                }
            }
            if nontrivial {
                seq_blocks += 1;
            }
        }

        accel_cycles += cand.entries as f64 * QSCORES_INVOKE_CYCLES;

        let area =
            classes.values().sum::<f64>() + regs + SCAN_CHAIN_AREA + FSM_STATE_AREA * states as f64;

        vec![AcceleratorDesign {
            func: cand.func,
            blocks: cand.blocks.clone(),
            unroll: 1,
            pipelined: Vec::new(),
            pipelined_detail: Vec::new(),
            interfaces,
            seq_blocks,
            accel_cycles_total: accel_cycles,
            area,
            cpu_cycles: cand.cpu_cycles,
            entries: cand.entries,
        }]
    }

    fn cache_id(&self) -> Option<ModelId> {
        Some(ModelId {
            name: "qscores",
            options: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_analysis::access::AccessAnalysis;
    use cayman_analysis::ctx::FuncCtx;
    use cayman_analysis::memdep::analyse_loop_deps;
    use cayman_analysis::scev::Scev;
    use cayman_hls::interface::ModelOptions;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::interp::Interp;
    use cayman_ir::{FuncId, Module, Type};

    struct Owned {
        module: Module,
        ctx: FuncCtx,
        accesses: AccessAnalysis,
        deps: Vec<cayman_analysis::memdep::LoopDeps>,
        counts: Vec<u64>,
        total_cycles: u64,
        prints: cayman_hls::inputs::FuncPrints,
    }

    fn prepare(module: Module) -> Owned {
        module.verify().expect("verifies");
        let exec = Interp::new(&module).run(&[]).expect("runs");
        let f = module.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let accesses = AccessAnalysis::run(&module, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
        let prints = cayman_hls::inputs::FuncPrints::compute(&module, f, &ctx, &accesses, &deps);
        Owned {
            prints,
            ctx,
            accesses,
            deps,
            counts: exec.block_counts[0].clone(),
            total_cycles: exec.total_cycles,
            module,
        }
    }

    fn streaming_kernel() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[512]);
        let y = mb.array("y", Type::F64, &[512]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 512, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let t = fb.fmul(fb.fconst(3.0), xv);
                let v = fb.fadd(t, fb.fconst(1.0));
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    fn loop_candidate(o: &Owned) -> (FuncInputs<'_>, Candidate) {
        let inp = FuncInputs {
            module: &o.module,
            func_id: FuncId(0),
            ctx: &o.ctx,
            accesses: &o.accesses,
            deps: &o.deps,
            trips: &[512.0],
            block_counts: &o.counts,
            prints: &o.prints,
        };
        let l = o.ctx.forest.ids().next().expect("loop");
        let lp = o.ctx.forest.get(l);
        let cpu: u64 = lp
            .blocks
            .iter()
            .map(|&b| o.counts[b.index()] * cayman_ir::cpu_model::block_cycles(inp.func(), b))
            .sum();
        let cand = Candidate {
            func: FuncId(0),
            blocks: lp.blocks.clone(),
            entries: 1,
            cpu_cycles: cpu,
            is_bb: false,
        };
        (inp, cand)
    }

    #[test]
    fn qscores_accepts_control_flow_but_is_slow() {
        let o = prepare(streaming_kernel());
        let (inp, cand) = loop_candidate(&o);
        let qs = QsCoresModel.designs(&inp, &cand);
        assert_eq!(qs.len(), 1);
        let cayman = cayman_hls::design::generate_designs(&inp, &cand, &ModelOptions::default());
        let best_cayman = cayman
            .iter()
            .map(|d| d.accel_cycles_total)
            .fold(f64::INFINITY, f64::min);
        assert!(
            qs[0].accel_cycles_total > 3.0 * best_cayman,
            "scan-chain + sequential control loses big: {} vs {}",
            qs[0].accel_cycles_total,
            best_cayman
        );
        // but QsCores is area-lean (shared FUs, no AGUs/scratchpads)
        let best_cayman_pipe = cayman
            .iter()
            .filter(|d| !d.pipelined.is_empty())
            .map(|d| d.area)
            .fold(f64::INFINITY, f64::min);
        assert!(qs[0].area < best_cayman_pipe);
        let _ = o.total_cycles;
    }

    #[test]
    fn qscores_never_pipelines_or_unrolls() {
        let o = prepare(streaming_kernel());
        let (inp, cand) = loop_candidate(&o);
        let qs = QsCoresModel.designs(&inp, &cand);
        assert!(qs[0].pipelined.is_empty());
        assert_eq!(qs[0].unroll, 1);
    }
}
