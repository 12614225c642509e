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
//!
//! A [`LoopModel`] holds what does not depend on the configuration — the
//! loop body in reverse post-order, prepared for scheduling, its trip count
//! and its recurrence chains — and [`LoopModel::estimate`] prices one
//! (unroll, interface assignment) configuration from it. The design model
//! builds one per pipelinable loop per candidate; [`pipeline_loop`] is the
//! one-shot form.

use crate::inputs::RegionInputs;
use crate::interface::{InterfaceKind, InterfaceSpec, STREAM_WORDS_PER_CYCLE};
use crate::oplib;
use crate::schedule::{access_array, mem_latency, IfaceOf, MemOp, PortUse, Prepared};
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

/// One instruction's latency on a recurrence chain: fixed, or that of the
/// `m`-th load or store of [`LoopModel::mem_instrs`].
#[derive(Debug, Clone, Copy)]
enum ChainLat {
    Fixed(u64),
    Mem(usize),
}

/// The configuration-independent facts of pipelining one loop.
#[derive(Debug, Clone)]
pub struct LoopModel {
    /// The body in a producer-before-consumer order (reverse post-order
    /// over the loop's blocks).
    instrs: Vec<InstrId>,
    /// The body prepared for scheduling.
    body: Prepared,
    /// The loads and stores the estimate reads: the body's, in body order,
    /// then any on a recurrence chain outside the body.
    mem: Vec<(InstrId, MemOp)>,
    /// How many of `mem` are the body's own.
    body_mem: usize,
    trip: f64,
    /// Unanalysable accesses force sequential iteration issue.
    conservative: bool,
    /// Memory recurrences: the chain and its dependence distance.
    mem_recs: Vec<(Vec<ChainLat>, u64)>,
    /// Scalar recurrences: the chain.
    scalar_recs: Vec<Vec<ChainLat>>,
}

impl LoopModel {
    /// The facts of loop `l`, a loop inside the candidate.
    pub fn new(r: &RegionInputs<'_>, l: LoopId) -> LoopModel {
        let mut instrs = Vec::new();
        for b in r.rpo_blocks(l) {
            instrs.extend(r.block(b).instrs.iter().copied());
        }
        let body = Prepared::new(r, &instrs);
        let mut mem: Vec<(InstrId, MemOp)> = body
            .mem_instrs()
            .enumerate()
            .map(|(m, i)| (i, body.mem_op(m)))
            .collect();
        let body_mem = mem.len();
        let mut chain = |c: &[InstrId]| -> Vec<ChainLat> {
            c.iter()
                .map(|&i| match r.instr(i) {
                    ins @ (Instr::Load { .. } | Instr::Store { .. }) => {
                        let m = match mem.iter().position(|e| e.0 == i) {
                            Some(m) => m,
                            None => {
                                let op = MemOp {
                                    is_store: matches!(ins, Instr::Store { .. }),
                                    array: access_array(r, i),
                                };
                                mem.push((i, op));
                                mem.len() - 1
                            }
                        };
                        ChainLat::Mem(m)
                    }
                    other => ChainLat::Fixed(oplib::accel_latency(other)),
                })
                .collect()
        };
        let deps = r.deps(l);
        let mem_recs = deps
            .mem
            .iter()
            .map(|m| (chain(&m.chain), m.distance))
            .collect();
        let scalar_recs = deps.scalar.iter().map(|s| chain(&s.chain)).collect();
        LoopModel {
            instrs,
            body,
            mem,
            body_mem,
            trip: r.trip(l),
            conservative: deps.conservative,
            mem_recs,
            scalar_recs,
        }
    }

    /// The loop body in reverse post-order.
    pub(crate) fn body(&self) -> &[InstrId] {
        &self.instrs
    }

    /// The loads and stores whose specs [`LoopModel::estimate`] takes, in
    /// order.
    pub fn mem_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.mem.iter().map(|e| e.0)
    }

    fn chain_latency(&self, chain: &[ChainLat], specs: &[InterfaceSpec]) -> u64 {
        chain
            .iter()
            .map(|&c| match c {
                ChainLat::Fixed(l) => l,
                ChainLat::Mem(m) => mem_latency(self.mem[m].1, specs[m]),
            })
            .sum()
    }

    /// Recurrence-constrained minimum II when the `m`-th load or store of
    /// [`LoopModel::mem_instrs`] uses `specs[m]`.
    fn rec_mii(&self, specs: &[InterfaceSpec]) -> u64 {
        let mut mii = 1u64;
        if self.conservative {
            // Unanalysable accesses force sequential iteration issue: the
            // next iteration's access may depend on this iteration's store.
            let seq = (0..self.body_mem)
                .map(|m| mem_latency(self.mem[m].1, specs[m]))
                .max()
                .unwrap_or(1);
            mii = mii.max(seq);
        }
        for (chain, distance) in &self.mem_recs {
            let lat = self.chain_latency(chain, specs);
            mii = mii.max(lat.div_ceil((*distance).max(1)));
        }
        for chain in &self.scalar_recs {
            mii = mii.max(self.chain_latency(chain, specs).max(1));
        }
        mii
    }

    /// Resource-constrained minimum II from memory contention.
    ///
    /// Unrolling multiplies every access by `unroll`. Three resources bound
    /// the issue rate:
    ///
    /// * the single shared **coupled** port,
    /// * each buffered array's **ports** (from its spec),
    /// * the off-chip **stream bandwidth** shared by decoupled FIFOs and
    ///   line-buffer fills — a line buffer pulls one new word per iteration
    ///   per array, a decoupled bundle one word per access.
    pub fn res_mii(&self, specs: &[InterfaceSpec], unroll: u32) -> u64 {
        let mut coupled = 0u64;
        let mut stream_words = 0u64;
        let mut per_array = PortUse::default();
        let mut lb_arrays: Vec<u32> = Vec::new();
        for (m, spec) in specs[..self.body_mem].iter().enumerate() {
            let array = self.mem[m].1.array;
            match spec.kind {
                InterfaceKind::Coupled => coupled += 1,
                InterfaceKind::Decoupled => stream_words += 1,
                InterfaceKind::LineBuffer => {
                    let arr = array.unwrap_or(u32::MAX);
                    if !lb_arrays.contains(&arr) {
                        lb_arrays.push(arr);
                    }
                }
                _ => {
                    if let Some(p) = spec.mem_ports() {
                        per_array.add(array, p);
                    }
                }
            }
        }
        stream_words += lb_arrays.len() as u64; // one fill stream per buffered array
        let u = u64::from(unroll.max(1));
        let mut ii = (coupled * u).max(1); // one shared coupled port
        ii = ii.max((stream_words * u).div_ceil(STREAM_WORDS_PER_CYCLE));
        for &(_, uses, ports) in &per_array.0 {
            ii = ii.max((uses * u).div_ceil(ports.max(1)));
        }
        ii
    }

    /// Pipelines the loop with the given unroll factor when the `m`-th load
    /// or store of [`LoopModel::mem_instrs`] uses `specs[m]`.
    ///
    /// Scratchpad partitioning follows the paper ("memory partitioning is
    /// configured for scratchpad interfaces inside unrolled loops"):
    /// partitions = unroll factor.
    pub fn estimate(&self, specs: &[InterfaceSpec], unroll: u32) -> PipelineEstimate {
        debug_assert_eq!(specs.len(), self.mem.len());
        let depth = self.body.critical_path(&specs[..self.body_mem]);
        let ii = self.rec_mii(specs).max(self.res_mii(specs, unroll));
        let trips = self.trip.max(1.0);
        let iters = (trips / f64::from(unroll.max(1))).ceil().max(1.0);
        PipelineEstimate {
            ii,
            depth,
            iters,
            cycles_per_entry: depth as f64 + ii as f64 * (iters - 1.0),
        }
    }
}

/// Pipelines loop `l` with the given unroll factor and interface assignment
/// (each load or store takes `iface`'s spec, coupled when it has none): the
/// one-shot form of [`LoopModel::estimate`].
pub fn pipeline_loop(
    r: &RegionInputs<'_>,
    l: LoopId,
    unroll: u32,
    iface: &IfaceOf<'_>,
) -> PipelineEstimate {
    let model = LoopModel::new(r, l);
    let specs: Vec<InterfaceSpec> = model
        .mem_instrs()
        .map(|i| iface(i).unwrap_or_else(InterfaceSpec::coupled))
        .collect();
    model.estimate(&specs, unroll)
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
