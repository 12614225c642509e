//! The NOVIA baseline: inline custom functional units over basic-block
//! data-flow graphs.
//!
//! NOVIA discovers "non-conventional inline accelerators": the compute
//! portion of a basic block (excluding memory accesses, address computation
//! and control) is collapsed into one fused in-pipeline functional unit
//! clocked with the CPU. The modelled gain is the difference between issuing
//! every operation on the in-order core and evaluating the DFG's critical
//! path in the fused unit; loads/stores remain ordinary CPU instructions.

use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::{Candidate, FuncInputs, RegionInputs};
use cayman_hls::oplib::{dedicated_area, ACCEL_FREQ_HZ};
use cayman_hls::schedule::critical_path_with;
use cayman_ir::cpu_model::{instr_cycles, CPU_FREQ_HZ};
use cayman_ir::instr::Instr;
use cayman_ir::{InstrId, IrView};
use cayman_select::{AccelModel, ModelId};

/// Per-invocation overhead of triggering the inline unit (operand routing).
pub const NOVIA_INVOKE_CYCLES: u64 = 2;

/// The NOVIA accelerator model.
///
/// Only *bb* candidates yield designs; ctrl-flow regions are rejected —
/// NOVIA "fails to support control flow and memory accesses" (§IV-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoviaModel;

impl AccelModel for NoviaModel {
    fn designs(&self, inputs: &FuncInputs<'_>, cand: &Candidate) -> Vec<AcceleratorDesign> {
        if !cand.is_bb || cand.entries == 0 {
            return Vec::new();
        }
        let [block] = cand.blocks.as_slice() else {
            return Vec::new();
        };
        // Reads through the candidate's read set, like Cayman's model: the
        // shared design cache keys both on it.
        let r = &RegionInputs::new(inputs, cand);

        // The offloadable DFG: compute ops only.
        let dfg: Vec<InstrId> = r
            .block(*block)
            .instrs
            .iter()
            .copied()
            .filter(|&i| {
                !matches!(
                    r.instr(i),
                    Instr::Load { .. }
                        | Instr::Store { .. }
                        | Instr::Gep { .. }
                        | Instr::Phi { .. }
                        | Instr::Call { .. }
                )
            })
            .collect();
        if dfg.len() < 2 {
            // A single operation gains nothing from fusion.
            return Vec::new();
        }

        // CPU cycles the DFG costs when issued sequentially on the core.
        let cpu_dfg: u64 = dfg.iter().map(|&i| instr_cycles(r.instr(i))).sum();
        // Fused unit evaluates the DFG along its critical path (CPU clock;
        // per-op latencies match the core's functional units).
        let latency = |i: InstrId| instr_cycles(r.instr(i)).max(1);
        let cp = critical_path_with(r, &dfg, &latency) + NOVIA_INVOKE_CYCLES;

        let count = r.count(*block);
        let cpu_cycles_covered = cpu_dfg * count;
        // Express the inline unit's time in accelerator-frequency cycles so
        // `saved_seconds` (which divides by ACCEL_FREQ_HZ) is exact.
        let accel_cycles_total = cp as f64 * count as f64 * (ACCEL_FREQ_HZ / CPU_FREQ_HZ);

        let area: f64 = dfg.iter().map(|&i| dedicated_area(r.instr(i))).sum();

        vec![AcceleratorDesign {
            func: cand.func,
            blocks: cand.blocks.clone(),
            unroll: 1,
            pipelined: Vec::new(),
            pipelined_detail: Vec::new(),
            interfaces: Vec::new(), // scalar-only: no memory interfaces
            seq_blocks: 1,
            accel_cycles_total,
            area,
            cpu_cycles: cpu_cycles_covered,
            entries: cand.entries,
        }]
    }

    fn cache_id(&self) -> Option<ModelId> {
        Some(ModelId {
            name: "novia",
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
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::{FuncId, Module, Type};

    struct Owned {
        module: Module,
        ctx: FuncCtx,
        accesses: AccessAnalysis,
        deps: Vec<cayman_analysis::memdep::LoopDeps>,
        prints: cayman_hls::inputs::FuncPrints,
    }

    fn prepare(module: Module) -> Owned {
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
            module,
        }
    }

    fn compute_heavy_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[64]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 64, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                // a wide DFG with exploitable ILP
                let a = fb.fmul(v, fb.fconst(1.1));
                let b = fb.fmul(v, fb.fconst(2.2));
                let c = fb.fmul(v, fb.fconst(3.3));
                let d = fb.fadd(a, b);
                let e = fb.fadd(c, d);
                fb.store_idx(x, &[i], e);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn bb_candidate_gets_a_cfu() {
        let o = prepare(compute_heavy_module());
        let inp = FuncInputs {
            module: &o.module,
            func_id: FuncId(0),
            ctx: &o.ctx,
            accesses: &o.accesses,
            deps: &o.deps,
            trips: &[64.0],
            block_counts: &[1, 65, 64, 1],
            prints: &o.prints,
        };
        let cand = Candidate {
            func: FuncId(0),
            blocks: vec![cayman_ir::BlockId(2)],
            entries: 64,
            cpu_cycles: 64 * 40,
            is_bb: true,
        };
        let designs = NoviaModel.designs(&inp, &cand);
        assert_eq!(designs.len(), 1);
        let d = &designs[0];
        // scalar-only: no memory interfaces
        assert!(d.interfaces.is_empty());
        // the fused unit saves time (ILP: 3 parallel fmuls)
        assert!(d.saved_seconds() > 0.0, "saved {}", d.saved_seconds());
        // it must not claim the whole block's CPU time (loads excluded)
        assert!(d.cpu_cycles < cand.cpu_cycles);
        assert!(d.area > 0.0);
    }

    #[test]
    fn ctrl_flow_candidates_are_rejected() {
        let o = prepare(compute_heavy_module());
        let inp = FuncInputs {
            module: &o.module,
            func_id: FuncId(0),
            ctx: &o.ctx,
            accesses: &o.accesses,
            deps: &o.deps,
            trips: &[64.0],
            block_counts: &[1, 65, 64, 1],
            prints: &o.prints,
        };
        let l = o.ctx.forest.ids().next().expect("loop");
        let cand = Candidate {
            func: FuncId(0),
            blocks: o.ctx.forest.get(l).blocks.clone(),
            entries: 1,
            cpu_cycles: 5000,
            is_bb: false,
        };
        assert!(NoviaModel.designs(&inp, &cand).is_empty());
    }

    #[test]
    fn trivial_blocks_are_rejected() {
        let o = prepare(compute_heavy_module());
        let inp = FuncInputs {
            module: &o.module,
            func_id: FuncId(0),
            ctx: &o.ctx,
            accesses: &o.accesses,
            deps: &o.deps,
            trips: &[64.0],
            block_counts: &[1, 65, 64, 1],
            prints: &o.prints,
        };
        // entry block has no compute DFG
        let cand = Candidate {
            func: FuncId(0),
            blocks: vec![cayman_ir::BlockId(0)],
            entries: 1,
            cpu_cycles: 10,
            is_bb: true,
        };
        assert!(NoviaModel.designs(&inp, &cand).is_empty());
    }
}
