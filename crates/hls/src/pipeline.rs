//! Loop pipelining model: initiation-interval computation and pipelined-loop
//! latency (§III-C, Fig. 4).
//!
//! `II = max(recMII, resMII)`:
//!
//! * **recMII** from loop-carried dependence cycles (memory and scalar
//!   recurrences reported by `cayman-analysis::memdep`): the summed
//!   accelerator latency around the cycle divided by the dependence distance,
//! * **resMII** from memory contention: coupled accesses share one LSU
//!   port; each buffered array's accesses share the ports its
//!   [`InterfaceSpec`] exposes (`banks × 2` for scratchpads); decoupled
//!   FIFOs and line-buffer fills have private channels but share the
//!   off-chip stream bandwidth — one word per decoupled access, one word
//!   per line-buffered *array*. This is why Fig. 4's pipelined loop reaches
//!   II = 1 with the decoupled interface but II = 3 with the coupled one,
//!   and why a line buffer beats a bundle of decoupled taps on a stencil.

use crate::inputs::RegionInputs;
use crate::interface::{InterfaceKind, InterfaceSpec, STREAM_WORDS_PER_CYCLE};
use crate::schedule::{access_array, asap_schedule, latency_with_iface, IfaceOf};
use cayman_ir::instr::Instr;
use cayman_ir::loops::LoopId;
use cayman_ir::{InstrId, IrView};

/// Pipelining outcome for one loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineEstimate {
    /// Initiation interval.
    pub ii: u64,
    /// Pipeline depth (cycles from iteration issue to completion).
    pub depth: u64,
    /// Iterations per loop entry after unrolling (`trips / unroll`).
    pub iters: f64,
    /// Cycles per loop entry: `depth + II · (iters − 1)`.
    pub cycles_per_entry: f64,
}

/// Instructions of the loop body in a producer-before-consumer order
/// (reverse post-order over the loop's blocks).
pub fn loop_body_instrs(r: &RegionInputs<'_>, l: LoopId) -> Vec<InstrId> {
    let mut instrs = Vec::new();
    for b in r.rpo_blocks(l) {
        instrs.extend(r.block(b).instrs.iter().copied());
    }
    instrs
}

/// Recurrence-constrained minimum II for loop `l` under the given interface
/// assignment.
pub fn rec_mii(r: &RegionInputs<'_>, l: LoopId, iface: &IfaceOf<'_>) -> u64 {
    let deps = r.deps(l);
    let mut mii = 1u64;
    if deps.conservative {
        // Unanalysable accesses force sequential iteration issue: the next
        // iteration's access may depend on this iteration's store.
        let seq: u64 = loop_body_instrs(r, l)
            .iter()
            .filter(|&&i| matches!(r.instr(i), Instr::Load { .. } | Instr::Store { .. }))
            .map(|&i| latency_with_iface(r, i, iface))
            .max()
            .unwrap_or(1);
        mii = mii.max(seq);
    }
    for m in &deps.mem {
        let lat: u64 = m
            .chain
            .iter()
            .map(|&i| latency_with_iface(r, i, iface))
            .sum();
        mii = mii.max(lat.div_ceil(m.distance.max(1)));
    }
    for s in &deps.scalar {
        let lat: u64 = s
            .chain
            .iter()
            .map(|&i| latency_with_iface(r, i, iface))
            .sum();
        mii = mii.max(lat.max(1));
    }
    mii
}

/// Resource-constrained minimum II from memory contention.
///
/// Unrolling multiplies every access by `unroll`. Three resources bound the
/// issue rate:
///
/// * the single shared **coupled** port,
/// * each buffered array's **ports** (from its spec),
/// * the off-chip **stream bandwidth** shared by decoupled FIFOs and
///   line-buffer fills — a line buffer pulls one new word per iteration per
///   array, a decoupled bundle one word per access.
pub fn res_mii(r: &RegionInputs<'_>, body: &[InstrId], iface: &IfaceOf<'_>, unroll: u32) -> u64 {
    let mut coupled = 0u64;
    let mut stream_words = 0u64;
    let mut per_array: std::collections::HashMap<u32, (u64, u64)> = Default::default();
    let mut lb_arrays: std::collections::HashSet<u32> = Default::default();
    for &i in body {
        if matches!(r.instr(i), Instr::Load { .. } | Instr::Store { .. }) {
            let spec = iface(i).unwrap_or_else(InterfaceSpec::coupled);
            match spec.kind {
                InterfaceKind::Coupled => coupled += 1,
                InterfaceKind::Decoupled => stream_words += 1,
                InterfaceKind::LineBuffer => {
                    lb_arrays.insert(access_array(r, i).unwrap_or(u32::MAX));
                }
                _ => {
                    if let Some(p) = spec.mem_ports() {
                        let arr = access_array(r, i).unwrap_or(u32::MAX);
                        let e = per_array.entry(arr).or_insert((0, 0));
                        e.0 += 1;
                        e.1 = e.1.max(p);
                    }
                }
            }
        }
    }
    stream_words += lb_arrays.len() as u64; // one fill stream per buffered array
    let u = u64::from(unroll.max(1));
    let mut ii = (coupled * u).max(1); // one shared coupled port
    ii = ii.max((stream_words * u).div_ceil(STREAM_WORDS_PER_CYCLE));
    for &(uses, ports) in per_array.values() {
        ii = ii.max((uses * u).div_ceil(ports.max(1)));
    }
    ii
}

/// Pipelines loop `l` with the given unroll factor and interface assignment.
///
/// Scratchpad partitioning follows the paper ("memory partitioning is
/// configured for scratchpad interfaces inside unrolled loops"): partitions =
/// unroll factor.
pub fn pipeline_loop(
    r: &RegionInputs<'_>,
    l: LoopId,
    unroll: u32,
    iface: &IfaceOf<'_>,
) -> PipelineEstimate {
    let body = loop_body_instrs(r, l);
    let sched = asap_schedule(r, &body, iface, 1, false);
    let depth = sched.critical_path.max(1);
    let ii = rec_mii(r, l, iface).max(res_mii(r, &body, iface, unroll));
    let trips = r.trip(l).max(1.0);
    let iters = (trips / f64::from(unroll.max(1))).ceil().max(1.0);
    PipelineEstimate {
        ii,
        depth,
        iters,
        cycles_per_entry: depth as f64 + ii as f64 * (iters - 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Candidate, FuncInputs, FuncPrints};
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
        counts: Vec<u64>,
        prints: FuncPrints,
        /// The function's first loop, as a candidate.
        cand: Candidate,
    }

    fn prepare(module: Module) -> Owned {
        let f = module.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let accesses = AccessAnalysis::run(&module, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
        let counts = vec![1; f.blocks.len()];
        let prints = FuncPrints::compute(&module, f, &ctx, &accesses, &deps);
        let l = ctx.forest.ids().next().expect("loop");
        let cand = Candidate {
            func: FuncId(0),
            blocks: ctx.forest.get(l).blocks.clone(),
            entries: 1,
            cpu_cycles: 1,
            is_bb: false,
        };
        Owned {
            ctx,
            accesses,
            deps,
            counts,
            prints,
            cand,
            module,
        }
    }

    fn inputs<'a>(o: &'a Owned, trips: &'a [f64]) -> FuncInputs<'a> {
        FuncInputs {
            module: &o.module,
            func_id: FuncId(0),
            ctx: &o.ctx,
            accesses: &o.accesses,
            deps: &o.deps,
            trips,
            block_counts: &o.counts,
            content_fp: cayman_ir::fingerprint_function(o.module.function(FuncId(0))),
            prints: &o.prints,
        }
    }

    fn saxpy() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[64]);
        let y = mb.array("y", Type::F64, &[64]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 64, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let t = fb.fmul(fb.fconst(3.0), xv);
                let v = fb.fadd(t, fb.fconst(1.0));
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn decoupled_reaches_ii_1_coupled_does_not() {
        let o = prepare(saxpy());
        let inp = inputs(&o, &[64.0]);
        let r = RegionInputs::new(&inp, &o.cand);
        let l = o.ctx.forest.ids().next().expect("loop");
        let coupled = |_: InstrId| Some(InterfaceSpec::coupled());
        let dec = |i: InstrId| {
            let f = inp.func();
            if matches!(f.instr(i), Instr::Load { .. } | Instr::Store { .. }) {
                Some(InterfaceSpec::decoupled())
            } else {
                Some(InterfaceSpec::coupled())
            }
        };
        let pc = pipeline_loop(&r, l, 1, &coupled);
        let pd = pipeline_loop(&r, l, 1, &dec);
        // Fig. 4: coupled pipelining is port-bound (2 accesses → II ≥ 2);
        // decoupled reaches II = 1.
        assert!(pc.ii >= 2, "coupled II {}", pc.ii);
        assert_eq!(pd.ii, 1, "decoupled II");
        assert!(pd.cycles_per_entry < pc.cycles_per_entry);
    }

    #[test]
    fn accumulation_constrains_ii() {
        // z[0] += x[i]: memory recurrence load+fadd+store every iteration.
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[64]);
        let z = mb.array("z", Type::F64, &[1]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 64, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let zero = fb.iconst(0);
                let zv = fb.load_idx(z, &[zero]);
                let s = fb.fadd(zv, xv);
                fb.store_idx(z, &[zero], s);
            });
            fb.ret(None);
        });
        let o = prepare(mb.finish());
        let inp = inputs(&o, &[64.0]);
        let r = RegionInputs::new(&inp, &o.cand);
        let l = o.ctx.forest.ids().next().expect("loop");
        let dec = |_: InstrId| Some(InterfaceSpec::decoupled());
        let p = pipeline_loop(&r, l, 1, &dec);
        // chain: load z (1) + fadd (2) + store z (1) = 4 → II ≥ 4.
        assert!(p.ii >= 4, "II {}", p.ii);
    }

    #[test]
    fn unrolling_scales_iterations_with_scratchpad() {
        let o = prepare(saxpy());
        let inp = inputs(&o, &[64.0]);
        let r = RegionInputs::new(&inp, &o.cand);
        let l = o.ctx.forest.ids().next().expect("loop");
        // Partitioning follows unroll: the design layer assigns
        // `scratchpad(u)` to accesses in a loop unrolled by `u`.
        let spad = |parts: u32| {
            let inp = &inp;
            move |i: InstrId| {
                let f = inp.func();
                if matches!(f.instr(i), Instr::Load { .. } | Instr::Store { .. }) {
                    Some(InterfaceSpec::scratchpad(parts))
                } else {
                    Some(InterfaceSpec::coupled())
                }
            }
        };
        let p1 = pipeline_loop(&r, l, 1, &spad(1));
        let p4 = pipeline_loop(&r, l, 4, &spad(4));
        assert_eq!(p1.iters, 64.0);
        assert_eq!(p4.iters, 16.0);
        // scratchpad ports scale with partitions = unroll, so II stays low
        assert!(p4.ii <= 2 * p1.ii);
        assert!(p4.cycles_per_entry < p1.cycles_per_entry);
    }
}
