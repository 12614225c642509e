//! Accelerator configuration generation and performance/area estimation
//! (§III-C "Accelerator Configuration" and "Performance and Area Estimation").
//!
//! Given a [`Candidate`] region, [`generate_designs`] explores the paper's
//! fast configuration space:
//!
//! 1. a **sequential** configuration (no pipelining; functional units are
//!    time-shared — minimum area),
//! 2. **pipelined** configurations: innermost loops pipelined, unrolled by
//!    factors from [`ModelOptions::unroll_factors`] when they carry no
//!    loop-carried dependence,
//!
//! each with heuristic data-access interface assignment: *scratchpad* when
//! the access count exceeds β × footprint, *decoupled* for stream accesses in
//! pipelined loops, *coupled* otherwise.
//!
//! When [`ModelOptions::extended`] is set, every configuration additionally
//! enumerates **memory plans** that upgrade the heuristic assignment where
//! the analyzer can prove legality:
//!
//! * **line buffers** for arrays whose loads form a stencil window
//!   ([`cayman_analysis::banking::stencil_window`]) — one off-chip fetch per
//!   iteration instead of one per tap, no DMA, cheap taps;
//! * **banked scratchpads** where every unrolled access stride is proven
//!   conflict-free ([`cayman_analysis::banking::bank_conflict_free`]) —
//!   more ports than the heuristic partitioning, lowering resMII;
//! * **double-buffered scratchpads** when the candidate is entered more than
//!   once — the DMA fill of entry *n+1* hides behind the compute of entry
//!   *n*, so only the first fill is exposed, for twice the buffer area.
//!
//! All plans of a configuration are emitted; Pareto pruning upstream keeps
//! the useful ones.
//!
//! Estimation decomposes the candidate into pipelined loop regions `P` and
//! sequential basic blocks `B` (the paper's bottom-up scheme): pipelined
//! loops contribute `entries · (depth + II·(iters−1))`, sequential blocks
//! contribute `executions · schedule_length`, and every candidate entry pays
//! offload synchronisation plus scratchpad DMA fill/drain and line-buffer
//! warm-up.
//!
//! ## Facts, then configurations
//!
//! One call computes everything that does not depend on the configuration
//! once, from the candidate's [`RegionInputs`]:
//!
//! * per access: its footprint, stream flag, element size, per-entry count,
//!   pipelinable loop and stride along it — and from those the heuristic
//!   interface kind, once for the sequential and once for the pipelined
//!   configurations;
//! * per pipelinable loop: its [`LoopModel`] (reverse-post-order body
//!   prepared for scheduling, recurrences), dedicated area, entries and
//!   unroll/duplication legality;
//! * per block: its prepared schedule input; per configuration class
//!   (sequential, pipelined) the sequential blocks' FU classes, registers
//!   and non-trivial count;
//! * the line-buffer plan's upgrades.
//!
//! Each (unroll, duplication, plan) design is then assembled from those
//! facts with interfaces held as a `Vec` indexed by access. Schedules and
//! pipeline estimates are memoised for the call by (block or loop, unroll,
//! specs of its loads and stores): the same block is otherwise rescheduled
//! under an identical assignment by several plans and configurations.
//! Nothing is shared between calls.

use crate::inputs::{Candidate, FuncInputs, RegionInputs};
use crate::interface::{
    InterfaceKind, InterfaceSpec, ModelOptions, COUPLED_LSU_AREA, DMA_AREA, DMA_BYTES_PER_CYCLE,
};
use crate::oplib::{
    dedicated_area, fu_area, fu_class, FuClass, ACCEL_FREQ_HZ, FSM_STATE_AREA, OFFLOAD_SYNC_CYCLES,
    REG_AREA,
};
use crate::pipeline::{LoopModel, PipelineEstimate};
use crate::schedule::Prepared;
use cayman_analysis::access::{footprint, AccessInfo};
use cayman_analysis::banking::{bank_conflict_free, stencil_window};
use cayman_ir::cpu_model::CPU_FREQ_HZ;
use cayman_ir::instr::Instr;
use cayman_ir::loops::LoopId;
use cayman_ir::{ArrayId, BlockId, FuncId, InstrId, IrView};
use std::collections::BTreeMap;

/// One fully configured accelerator design for a candidate region.
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    /// Containing function.
    pub func: FuncId,
    /// Blocks covered (the candidate region).
    pub blocks: Vec<BlockId>,
    /// Unroll factor applied to eligible innermost loops.
    pub unroll: u32,
    /// Pipelined loops (`#PR` contribution).
    pub pipelined: Vec<LoopId>,
    /// Per pipelined loop: its block set and effective unroll factor —
    /// consumed by the merging pass to extract datapath units.
    pub pipelined_detail: Vec<(LoopId, Vec<BlockId>, u32)>,
    /// Interface assignment per memory access instruction.
    pub interfaces: Vec<(InstrId, InterfaceSpec)>,
    /// Number of sequential basic blocks synthesised (`#SB` contribution).
    pub seq_blocks: usize,
    /// Total accelerator cycles over the program run (`Cycle_cand` share).
    pub accel_cycles_total: f64,
    /// Estimated accelerator area.
    pub area: f64,
    /// Profiled CPU cycles the candidate replaces.
    pub cpu_cycles: u64,
    /// Profiled entries of the candidate.
    pub entries: u64,
}

impl AcceleratorDesign {
    /// Wall-clock seconds saved by offloading (Eq. (1) numerator term):
    /// `T_cand − Cycle_cand / F`.
    pub fn saved_seconds(&self) -> f64 {
        self.cpu_cycles as f64 / CPU_FREQ_HZ - self.accel_cycles_total / ACCEL_FREQ_HZ
    }

    /// CPU seconds replaced (`T_cand`).
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_cycles as f64 / CPU_FREQ_HZ
    }

    /// Accelerator seconds spent (`Cycle_cand / F`).
    pub fn accel_seconds(&self) -> f64 {
        self.accel_cycles_total / ACCEL_FREQ_HZ
    }

    /// `(coupled, decoupled, scratchpad-family, line-buffer)` interface
    /// counts (#C, #D, #S, #LB). The scratchpad-family bucket covers plain,
    /// banked and double-buffered scratchpads.
    pub fn iface_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for (_, spec) in &self.interfaces {
            match spec.kind {
                InterfaceKind::Coupled => c.0 += 1,
                InterfaceKind::Decoupled => c.1 += 1,
                InterfaceKind::Scratchpad
                | InterfaceKind::BankedScratchpad
                | InterfaceKind::DoubleBuffered => c.2 += 1,
                InterfaceKind::LineBuffer => c.3 += 1,
            }
        }
        c
    }
}

/// Generates the candidate's accelerator configurations (the `accel(v, R)`
/// call of Algorithm 1). Designs that would not save any time are still
/// returned; Pareto pruning upstream discards them.
///
/// The model reads `inputs` only through the candidate's [`RegionInputs`],
/// so the designs depend on nothing its [`crate::inputs::CandidateKey`]
/// does not cover.
pub fn generate_designs(
    inputs: &FuncInputs<'_>,
    cand: &Candidate,
    opts: &ModelOptions,
) -> Vec<AcceleratorDesign> {
    let _s = cayman_obs::span!("hls.generate", blocks = cand.blocks.len(), bb = cand.is_bb,);
    if cand.entries == 0 {
        return Vec::new();
    }
    let r = &RegionInputs::new(inputs, cand);
    let facts = Facts::new(r, opts);
    let mut memo = Memo::new(&facts);
    let mut designs = Vec::new();

    // Sequential configuration (always available).
    facts.configure(&mut memo, opts, false, 1, 1, &mut designs);

    if !facts.loops.is_empty() {
        // Pipelined configurations: inner unroll × outer duplication.
        let any_unrollable = facts.loops.iter().any(|l| l.unrollable);
        let any_duplicable = facts.loops.iter().any(|l| l.dup_eligible(2));
        for &u in &opts.unroll_factors {
            if u > 1 && !any_unrollable {
                break;
            }
            for &d in &opts.duplication_factors {
                if d > 1 && !any_duplicable {
                    break;
                }
                if u.saturating_mul(d) > 16 {
                    continue;
                }
                facts.configure(&mut memo, opts, true, u, d, &mut designs);
            }
        }
    }
    designs
}

/// One load or store of the candidate.
struct AccessFact<'a> {
    info: &'a AccessInfo,
    /// Elements touched per candidate entry (`None` for a non-stream).
    footprint: Option<f64>,
    elem_bytes: f64,
    /// Position in [`Facts::loops`] of the pipelinable loop holding it.
    pipe: Option<usize>,
    /// Its address stride along that loop (`None`: unknown address).
    stride: Option<i64>,
}

/// One pipelinable loop: an innermost loop inside the candidate.
struct LoopFact<'a> {
    id: LoopId,
    blocks: &'a [BlockId],
    model: LoopModel,
    /// The access of each of `model`'s loads and stores, if it has one.
    mem_access: Vec<Option<usize>>,
    /// Dedicated area of one datapath copy of the body.
    area: f64,
    entries: u64,
    /// No loop-carried dependence, or only pure scalar reductions (which
    /// unroll into partial sums; the recurrence II is preserved).
    unrollable: bool,
    /// The parent's trip count, when the parent lies inside the candidate
    /// and carries no dependence: duplication distributes its iterations
    /// over parallel pipeline instances.
    dup_trip: Option<f64>,
    /// Some load or store is coupled under the pipelined heuristic — it
    /// would serialise on the single LSU port, so it vetoes duplication.
    has_coupled: bool,
}

impl LoopFact<'_> {
    /// Whether the loop can be duplicated `d`-fold.
    fn dup_eligible(&self, d: u32) -> bool {
        self.dup_trip.is_some_and(|t| t >= f64::from(d))
    }
}

/// One candidate block, for sequential scheduling.
struct BlockFact {
    count: u64,
    body: Prepared,
    /// The access of each of `body`'s loads and stores, if it has one.
    mem_access: Vec<Option<usize>>,
}

/// The sequential blocks of one configuration class.
#[derive(Default)]
struct SeqPart {
    /// Positions in [`Facts::blocks`], in candidate order.
    blocks: Vec<usize>,
    /// Blocks with an instruction other than a phi (`#SB`).
    nontrivial: usize,
    /// One time-shared unit per FU class used.
    fu_area: f64,
    /// One register per instruction.
    reg_area: f64,
}

/// The line-buffer plan's upgrades over the heuristic assignment.
struct LineBuffers {
    /// Access → line-buffer spec.
    upgrades: Vec<(usize, InterfaceSpec)>,
    /// Array id → line-buffer storage bytes (`(rows − 1) · row_stride ·
    /// elem_bytes`).
    bytes: BTreeMap<u32, f64>,
    /// Warm-up cycles per candidate entry (rows that must stream in before
    /// the first full window).
    warmup: f64,
}

/// The configuration-independent facts of one candidate.
struct Facts<'r, 'a> {
    r: &'r RegionInputs<'a>,
    accesses: Vec<AccessFact<'a>>,
    /// Access positions by instruction id (designs list interfaces so).
    by_instr: Vec<usize>,
    loops: Vec<LoopFact<'a>>,
    blocks: Vec<BlockFact>,
    /// Heuristic interface kind per access: sequential, then pipelined.
    kinds: [Vec<InterfaceKind>; 2],
    /// Sequential blocks: of the sequential, then the pipelined
    /// configurations.
    seq: [SeqPart; 2],
    /// Pipelined configurations only; `None` without a provable window.
    line_buffers: Option<LineBuffers>,
}

impl<'r, 'a> Facts<'r, 'a> {
    fn new(r: &'r RegionInputs<'a>, opts: &ModelOptions) -> Self {
        let cand = r.candidate();
        let innermost = r.innermost_loops();
        let loops_trips: Vec<(LoopId, f64)> =
            r.loops_within().iter().map(|&l| (l, r.trip(l))).collect();

        // ---- accesses and their heuristic kinds ---------------------------
        let mut accesses = Vec::new();
        let mut kinds = [Vec::new(), Vec::new()];
        for a in r.accesses() {
            // An innermost loop inside the candidate has no child loops, so
            // it is pipelined exactly when it is the access's innermost one.
            let pipe = r
                .innermost_loop(a.block)
                .and_then(|l| innermost.iter().position(|&p| p == l));
            let fp = footprint(a, &cand.blocks, &loops_trips);
            let elem_bytes = r.array(a.array).elem.byte_width() as f64;
            let total_count = r.count(a.block) as f64 / cand.entries as f64;
            let stream = a.is_stream_within(&cand.blocks);
            for (pipelined, kinds) in kinds.iter_mut().enumerate() {
                let in_pipelined = pipelined == 1 && pipe.is_some();
                kinds.push(if opts.coupled_only {
                    InterfaceKind::Coupled
                } else {
                    match fp {
                        Some(fp)
                            if total_count >= opts.beta * fp
                                && fp * elem_bytes <= opts.spad_max_bytes =>
                        {
                            InterfaceKind::Scratchpad
                        }
                        Some(_) if in_pipelined && stream => InterfaceKind::Decoupled,
                        _ => InterfaceKind::Coupled,
                    }
                });
            }
            accesses.push(AccessFact {
                info: a,
                footprint: fp,
                elem_bytes,
                pipe,
                stride: pipe.and_then(|p| a.addr.as_ref().map(|e| e.coeff(innermost[p]))),
            });
        }
        let mut index: Vec<(InstrId, usize)> = accesses
            .iter()
            .enumerate()
            .map(|(k, a)| (a.info.instr, k))
            .collect();
        index.sort_unstable();
        let access_of = |i: InstrId| {
            index
                .binary_search_by_key(&i, |&(x, _)| x)
                .ok()
                .map(|at| index[at].1)
        };

        // ---- pipelinable loops --------------------------------------------
        let loops: Vec<LoopFact<'a>> = innermost
            .iter()
            .enumerate()
            .map(|(pos, &l)| {
                let lp = r.get_loop(l);
                let model = LoopModel::new(r, l);
                let mem_access = model.mem_instrs().map(access_of).collect();
                let area = model
                    .body()
                    .iter()
                    .map(|&i| dedicated_area(r.instr(i)))
                    .sum();
                let back: u64 = lp.latches.iter().map(|&b| r.count(b)).sum();
                let deps = r.deps(l);
                let dup_trip = lp
                    .parent
                    .filter(|&p| r.is_within(p) && !r.deps(p).has_carried())
                    .map(|p| r.trip(p));
                let has_coupled = accesses
                    .iter()
                    .zip(&kinds[1])
                    .any(|(a, &k)| a.pipe == Some(pos) && k == InterfaceKind::Coupled);
                LoopFact {
                    id: l,
                    blocks: &lp.blocks,
                    model,
                    mem_access,
                    area,
                    entries: r.count(lp.header).saturating_sub(back).max(1),
                    unrollable: !deps.has_carried() || deps.is_reduction_only(r),
                    dup_trip,
                    has_coupled,
                }
            })
            .collect();

        // ---- blocks and the sequential parts ------------------------------
        let mut blocks = Vec::with_capacity(cand.blocks.len());
        let mut seq: [SeqPart; 2] = Default::default();
        // Per part, the FU classes its blocks use.
        let mut classes: [Vec<FuClass>; 2] = Default::default();
        for (pos, &b) in cand.blocks.iter().enumerate() {
            let instrs = &r.block(b).instrs;
            let body = Prepared::new(r, instrs);
            let mem_access = body.mem_instrs().map(access_of).collect();
            blocks.push(BlockFact {
                count: r.count(b),
                body,
                mem_access,
            });
            let in_loop = loops.iter().any(|l| l.blocks.contains(&b));
            let nontrivial = instrs
                .iter()
                .any(|&i| !matches!(r.instr(i), Instr::Phi { .. }));
            // The sequential configuration schedules every block, the
            // pipelined ones only the blocks outside the pipelined loops.
            for (pipelined, (part, classes)) in seq.iter_mut().zip(&mut classes).enumerate() {
                if pipelined == 1 && in_loop {
                    continue;
                }
                part.blocks.push(pos);
                part.nontrivial += usize::from(nontrivial);
                for &i in instrs {
                    if let Some(c) = fu_class(r.instr(i)) {
                        if !classes.contains(&c) {
                            classes.push(c);
                        }
                    }
                    part.reg_area += REG_AREA;
                }
            }
        }
        for (part, classes) in seq.iter_mut().zip(&mut classes) {
            classes.sort_unstable();
            part.fu_area = classes.iter().map(|&c| fu_area(c)).sum::<f64>();
        }

        let line_buffers = if opts.extended && !opts.coupled_only {
            line_buffers(r, opts, &accesses, &loops)
        } else {
            None
        };
        Facts {
            r,
            by_instr: index.iter().map(|&(_, k)| k).collect(),
            accesses,
            loops,
            blocks,
            kinds,
            seq,
            line_buffers,
        }
    }

    /// Builds one configuration — the pipelinable loops pipelined or not,
    /// unroll `unroll`, duplication `dup` — and estimates every memory plan
    /// of it into `out`. The heuristic 3-kind plan always comes first;
    /// extended plans follow when enabled and legal.
    fn configure(
        &self,
        memo: &mut Memo,
        opts: &ModelOptions,
        pipelined: bool,
        unroll: u32,
        dup: u32,
        out: &mut Vec<AcceleratorDesign>,
    ) {
        let kinds = &self.kinds[usize::from(pipelined)];
        // Effective (unroll, duplication) per pipelined loop.
        let factors: Vec<(u32, u32)> = if pipelined {
            self.loops
                .iter()
                .map(|l| {
                    let u = if l.unrollable { unroll } else { 1 };
                    let d = if dup <= 1 || !l.dup_eligible(dup) || l.has_coupled {
                        1
                    } else {
                        dup
                    };
                    (u, d)
                })
                .collect()
        } else {
            Vec::new()
        };
        let cfg = Config {
            pipelined,
            unroll,
            factors,
        };

        // Scratchpad partitions per array: unroll × duplication of the
        // access's pipelined loop (parallel unroll copies need parallel
        // banks). Taking the per-array max keeps one buffer per array.
        let mut spad_parts: Vec<(u32, u32)> = Vec::new();
        for (k, a) in self.accesses.iter().enumerate() {
            if kinds[k] == InterfaceKind::Scratchpad {
                let p = cfg.loop_of(a).map_or(1, |l| cfg.parallel(l));
                match spad_parts.binary_search_by_key(&a.info.array.0, |e| e.0) {
                    Ok(at) => spad_parts[at].1 = spad_parts[at].1.max(p),
                    Err(at) => spad_parts.insert(at, (a.info.array.0, p.max(1))),
                }
            }
        }
        let base: Vec<InterfaceSpec> = self
            .accesses
            .iter()
            .zip(kinds)
            .map(|(a, kind)| match kind {
                InterfaceKind::Coupled => InterfaceSpec::coupled(),
                InterfaceKind::Decoupled => InterfaceSpec::decoupled(),
                _ => {
                    let at = spad_parts.binary_search_by_key(&a.info.array.0, |e| e.0);
                    InterfaceSpec::scratchpad(at.map_or(1, |at| spad_parts[at].1))
                }
            })
            .collect();

        out.push(self.estimate(memo, &cfg, &base, None));
        if !opts.extended || opts.coupled_only {
            return;
        }
        let mut plan = base.clone();
        if let Some(lb) = self.line_buffers.as_ref().filter(|_| pipelined) {
            for &(k, spec) in &lb.upgrades {
                plan[k] = spec;
            }
            out.push(self.estimate(memo, &cfg, &plan, Some(lb)));
        }
        if let Some(banks_of) = self.banked(opts, &cfg, &base, &spad_parts) {
            for (k, a) in self.accesses.iter().enumerate() {
                let arr = a.info.array.0;
                plan[k] = match banks_of.iter().find(|e| e.0 == arr) {
                    Some(&(_, b)) if base[k].kind == InterfaceKind::Scratchpad => {
                        InterfaceSpec::banked(b)
                    }
                    _ => base[k],
                };
            }
            out.push(self.estimate(memo, &cfg, &plan, None));
        }
        if self.r.candidate().entries > 1 && !spad_parts.is_empty() {
            // Ping-pong every scratchpad buffer: only the first fill shows.
            for (p, s) in plan.iter_mut().zip(&base) {
                *p = if s.kind == InterfaceKind::Scratchpad {
                    InterfaceSpec::double_buffered(u32::from(s.banks))
                } else {
                    *s
                };
            }
            out.push(self.estimate(memo, &cfg, &plan, None));
        }
    }

    /// Banks per array for the plan replacing heuristically partitioned
    /// scratchpads by conflict-proven banked ones with strictly more ports,
    /// where every unrolled access stride admits it; `None` when no array
    /// qualifies.
    fn banked(
        &self,
        opts: &ModelOptions,
        cfg: &Config,
        base: &[InterfaceSpec],
        spad_parts: &[(u32, u32)],
    ) -> Option<Vec<(u32, u32)>> {
        let mut banks_of = Vec::new();
        for &(arr, parts) in spad_parts {
            let mut best: Option<u32> = None;
            'factor: for &b in &opts.bank_factors {
                if b <= parts {
                    continue; // no new ports over the heuristic partitioning
                }
                for (a, spec) in self.accesses.iter().zip(base) {
                    if a.info.array.0 != arr || spec.kind != InterfaceKind::Scratchpad {
                        continue;
                    }
                    let Some(l) = cfg.loop_of(a) else {
                        continue; // not in a pipelined loop: one copy, no conflict
                    };
                    let u = cfg.parallel(l);
                    if u <= 1 {
                        continue;
                    }
                    let Some(stride) = a.stride else {
                        continue 'factor; // unknown stride: unprovable at this (or any) factor
                    };
                    if !bank_conflict_free(stride, b, u) {
                        continue 'factor;
                    }
                }
                best = Some(b);
            }
            if let Some(b) = best {
                banks_of.push((arr, b));
            }
        }
        (!banks_of.is_empty()).then_some(banks_of)
    }

    /// Estimates one configuration under one memory plan (`plan[k]` is the
    /// spec of access `k`).
    fn estimate(
        &self,
        memo: &mut Memo,
        cfg: &Config,
        plan: &[InterfaceSpec],
        lb: Option<&LineBuffers>,
    ) -> AcceleratorDesign {
        let cand = self.r.candidate();

        // ---- performance ----------------------------------------------------
        let mut accel_cycles = 0.0f64;
        let mut pipe_area = 0.0f64;
        let mut pipelined = Vec::new();
        let mut pipelined_detail = Vec::new();
        for (pos, (l, &(u, d))) in self.loops.iter().zip(&cfg.factors).enumerate() {
            pipelined.push(l.id);
            pipelined_detail.push((l.id, l.blocks.to_vec(), u * d));
            let est = memo.pipeline(self, pos, u, plan);
            // d parallel instances each take a share of the loop's entries.
            accel_cycles += l.entries as f64 * est.cycles_per_entry / f64::from(d);
            // Fully spatial datapath, duplicated per unroll copy and instance.
            pipe_area += l.area * f64::from(u * d);
        }

        // Sequential blocks: candidate blocks outside every pipelined loop.
        let seq = &self.seq[usize::from(cfg.pipelined)];
        let mut seq_states = 0u64;
        for &b in &seq.blocks {
            let length = memo.block(self, b, plan);
            accel_cycles += self.blocks[b].count as f64 * length as f64;
            seq_states += length;
        }

        // ---- interface performance & area costs --------------------------------
        // One buffer per DMA-filled array, sized by the max footprint, with
        // the spec the plan assigned to that array's accesses.
        let mut buffers: Vec<(u32, f64, InterfaceSpec)> = Vec::new();
        let mut n_coupled = 0usize;
        let mut iface_area = 0.0f64;
        for (a, &spec) in self.accesses.iter().zip(plan) {
            // The enclosing pipelined loop's duplication factor replicates
            // the access's interface hardware.
            let acc_dup = cfg.loop_of(a).map_or(1, |l| cfg.factors[l].1);
            iface_area += spec.per_access_area() * f64::from(acc_dup);
            match spec.kind {
                InterfaceKind::Coupled => n_coupled += 1,
                _ if spec.needs_dma() => {
                    let bytes = a.footprint.unwrap_or(1.0) * a.elem_bytes;
                    let arr = a.info.array.0;
                    match buffers.iter_mut().find(|e| e.0 == arr) {
                        Some(e) => *e = (arr, e.1.max(bytes), spec),
                        None => buffers.push((arr, 0.0f64.max(bytes), spec)),
                    }
                }
                _ => {}
            }
        }
        buffers.sort_unstable_by_key(|e| e.0);

        // DMA fill/drain: per candidate entry, except double-buffered arrays,
        // whose refill hides behind the previous entry's compute — only the
        // first fill is exposed.
        let mut dma_per_entry = 0.0f64;
        let mut dma_once = 0.0f64;
        for &(_, bytes, spec) in &buffers {
            let cycles = bytes / DMA_BYTES_PER_CYCLE;
            if spec.kind == InterfaceKind::DoubleBuffered {
                dma_once += cycles;
            } else {
                dma_per_entry += cycles;
            }
        }
        let lb_warmup = lb.map_or(0.0, |lb| lb.warmup);
        accel_cycles +=
            cand.entries as f64 * (OFFLOAD_SYNC_CYCLES + dma_per_entry + lb_warmup) + dma_once;

        // ---- area roll-up --------------------------------------------------------
        let mut area = pipe_area + seq.fu_area + seq.reg_area + iface_area;
        area += FSM_STATE_AREA * (seq_states + 3 * pipelined.len() as u64) as f64;
        if n_coupled > 0 {
            area += COUPLED_LSU_AREA;
        }
        if !buffers.is_empty() {
            area += DMA_AREA;
            for &(_, bytes, spec) in &buffers {
                area += spec.buffer_area(bytes);
            }
        }
        for bytes in lb.iter().flat_map(|lb| lb.bytes.values()) {
            area += InterfaceSpec::line_buffer(2).buffer_area(*bytes);
        }

        AcceleratorDesign {
            func: cand.func,
            blocks: cand.blocks.clone(),
            unroll: cfg.unroll,
            pipelined,
            pipelined_detail,
            interfaces: self
                .by_instr
                .iter()
                .map(|&k| (self.accesses[k].info.instr, plan[k]))
                .collect(),
            seq_blocks: seq.nontrivial,
            accel_cycles_total: accel_cycles,
            area,
            cpu_cycles: cand.cpu_cycles,
            entries: cand.entries,
        }
    }
}

/// One configuration of a candidate.
struct Config {
    /// Whether the pipelinable loops are pipelined.
    pipelined: bool,
    unroll: u32,
    /// Effective (unroll, duplication) per pipelined loop; empty when not
    /// pipelined.
    factors: Vec<(u32, u32)>,
}

impl Config {
    /// The pipelined loop holding access `a`, if any.
    fn loop_of(&self, a: &AccessFact<'_>) -> Option<usize> {
        a.pipe.filter(|_| self.pipelined)
    }

    /// Parallel copies of pipelined loop `l`'s body: unroll × duplication.
    fn parallel(&self, l: usize) -> u32 {
        let (u, d) = self.factors[l];
        u * d
    }
}

/// The line-buffer plan's upgrades, when any pipelinable loop nest carries a
/// provable window.
fn line_buffers(
    r: &RegionInputs<'_>,
    opts: &ModelOptions,
    accesses: &[AccessFact<'_>],
    loops: &[LoopFact<'_>],
) -> Option<LineBuffers> {
    // Stores to an array anywhere in the candidate invalidate buffered rows.
    let stored: Vec<u32> = accesses
        .iter()
        .filter(|a| a.info.is_store)
        .map(|a| a.info.array.0)
        .collect();
    let mut lb = LineBuffers {
        upgrades: Vec::new(),
        bytes: BTreeMap::new(),
        warmup: 0.0,
    };
    for l in loops {
        // The row loop must also run inside the candidate, or the buffered
        // rows are thrown away at every entry.
        let Some(row) = r.get_loop(l.id).parent else {
            continue;
        };
        if !r.is_within(row) {
            continue;
        }
        // Group this loop's loads by array.
        let mut loads: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (k, a) in accesses.iter().enumerate() {
            if !a.info.is_store && l.blocks.contains(&a.info.block) {
                loads.entry(a.info.array.0).or_default().push(k);
            }
        }
        for (arr, accs) in &loads {
            if stored.contains(arr) {
                continue;
            }
            let Some(addrs): Option<Vec<_>> = accs
                .iter()
                .map(|&k| accesses[k].info.addr.clone())
                .collect()
            else {
                continue;
            };
            let Some(win) = stencil_window(&addrs, row, l.id) else {
                continue;
            };
            if win.rows > opts.lb_max_rows {
                continue;
            }
            let elem_bytes = r.array(ArrayId(*arr)).elem.byte_width() as f64;
            let spec = InterfaceSpec::line_buffer(win.rows);
            lb.upgrades.extend(accs.iter().map(|&k| (k, spec)));
            lb.bytes.insert(
                *arr,
                (win.rows as f64 - 1.0) * win.row_stride as f64 * elem_bytes,
            );
            lb.warmup += (win.rows as f64 - 1.0) * win.row_stride as f64 + win.cols as f64;
        }
    }
    (!lb.upgrades.is_empty()).then_some(lb)
}

/// Schedules and pipeline estimates already computed in one
/// `generate_designs` call, keyed by (block or loop, unroll, specs of its
/// loads and stores).
struct Memo {
    blocks: Vec<Vec<(Vec<InterfaceSpec>, u64)>>,
    loops: Vec<Vec<(u32, Vec<InterfaceSpec>, PipelineEstimate)>>,
    /// The key being looked up.
    key: Vec<InterfaceSpec>,
}

impl Memo {
    fn new(facts: &Facts<'_, '_>) -> Memo {
        Memo {
            blocks: vec![Vec::new(); facts.blocks.len()],
            loops: vec![Vec::new(); facts.loops.len()],
            key: Vec::new(),
        }
    }

    /// The specs of the loads and stores `mem_access` names, under `plan`;
    /// one without an access record is coupled.
    fn fill_key(&mut self, mem_access: &[Option<usize>], plan: &[InterfaceSpec]) {
        self.key.clear();
        self.key.extend(
            mem_access
                .iter()
                .map(|a| a.map_or_else(InterfaceSpec::coupled, |k| plan[k])),
        );
    }

    /// Sequential schedule length of block `b` (a position in
    /// [`Facts::blocks`]) under `plan`.
    fn block(&mut self, facts: &Facts<'_, '_>, b: usize, plan: &[InterfaceSpec]) -> u64 {
        let fact = &facts.blocks[b];
        self.fill_key(&fact.mem_access, plan);
        if let Some((_, length)) = self.blocks[b].iter().find(|e| e.0 == self.key) {
            return *length;
        }
        let length = fact.body.schedule(&self.key, 1, true).length;
        self.blocks[b].push((self.key.clone(), length));
        length
    }

    /// Pipeline estimate of loop `l` (a position in [`Facts::loops`])
    /// unrolled `unroll`-fold under `plan`.
    fn pipeline(
        &mut self,
        facts: &Facts<'_, '_>,
        l: usize,
        unroll: u32,
        plan: &[InterfaceSpec],
    ) -> PipelineEstimate {
        let fact = &facts.loops[l];
        self.fill_key(&fact.mem_access, plan);
        if let Some((_, _, est)) = self.loops[l]
            .iter()
            .find(|e| e.0 == unroll && e.1 == self.key)
        {
            return *est;
        }
        let est = fact.model.estimate(&self.key, unroll);
        self.loops[l].push((unroll, self.key.clone(), est));
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::FuncPrints;
    use cayman_analysis::access::AccessAnalysis;
    use cayman_analysis::ctx::FuncCtx;
    use cayman_analysis::memdep::analyse_loop_deps;
    use cayman_analysis::scev::Scev;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::interp::Interp;
    use cayman_ir::{FuncId, Module, Type};

    struct Owned {
        module: Module,
        ctx: FuncCtx,
        accesses: AccessAnalysis,
        deps: Vec<cayman_analysis::memdep::LoopDeps>,
        counts: Vec<u64>,
        prints: FuncPrints,
    }

    fn prepare(module: Module) -> Owned {
        module.verify().expect("verifies");
        let mut interp = Interp::new(&module);
        let exec = interp.run(&[]).expect("runs");
        let f = module.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let accesses = AccessAnalysis::run(&module, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
        let counts = exec.block_counts[0].clone();
        let prints = FuncPrints::compute(&module, f, &ctx, &accesses, &deps);
        Owned {
            ctx,
            accesses,
            deps,
            counts,
            prints,
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

    fn loop_candidate(o: &Owned, inp: &FuncInputs<'_>) -> Candidate {
        let l = o
            .ctx
            .forest
            .ids()
            .find(|&l| o.ctx.forest.get(l).depth == 1)
            .expect("loop");
        let lp = o.ctx.forest.get(l);
        let back: u64 = lp.latches.iter().map(|&b| inp.count(b)).sum();
        let entries = inp.count(lp.header) - back;
        let cpu: u64 = lp
            .blocks
            .iter()
            .map(|&b| inp.count(b) * cayman_ir::cpu_model::block_cycles(inp.func(), b))
            .sum();
        Candidate {
            func: FuncId(0),
            blocks: lp.blocks.clone(),
            entries,
            cpu_cycles: cpu,
            is_bb: false,
        }
    }

    fn streaming_kernel(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("t");
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

    /// A 3×3 convolution over `h × w` — the canonical line-buffer shape.
    fn conv3x3_kernel(h: i64, w: i64) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let src = mb.array("src", Type::F64, &[h as usize, w as usize]);
        let dst = mb.array("dst", Type::F64, &[h as usize, w as usize]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(1, h - 1, 1, |fb, r| {
                fb.counted_loop(1, w - 1, 1, |fb, c| {
                    let mut acc = fb.fconst(0.0);
                    for dr in -1..=1i64 {
                        for dc in -1..=1i64 {
                            let rr = fb.add(r, fb.iconst(dr));
                            let cc = fb.add(c, fb.iconst(dc));
                            let v = fb.load_idx(src, &[rr, cc]);
                            acc = fb.fadd(acc, v);
                        }
                    }
                    fb.store_idx(dst, &[r, c], acc);
                });
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn pipelined_designs_beat_sequential() {
        let o = prepare(streaming_kernel(256));
        let inp = inputs(&o, &[256.0]);
        let cand = loop_candidate(&o, &inp);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        assert!(designs.len() >= 3, "seq + several unrolls");
        let seq = designs
            .iter()
            .find(|d| d.pipelined.is_empty())
            .expect("seq");
        let pipe = designs
            .iter()
            .find(|d| !d.pipelined.is_empty())
            .expect("pipelined");
        assert!(
            pipe.accel_cycles_total < seq.accel_cycles_total,
            "pipelining helps: {} vs {}",
            pipe.accel_cycles_total,
            seq.accel_cycles_total
        );
        assert!(pipe.area > seq.area, "pipelining costs area");
        // streaming loop saves time vs the CPU
        assert!(pipe.saved_seconds() > 0.0);
    }

    #[test]
    fn coupled_only_is_slower() {
        let o = prepare(streaming_kernel(256));
        let inp = inputs(&o, &[256.0]);
        let cand = loop_candidate(&o, &inp);
        let full = generate_designs(&inp, &cand, &ModelOptions::default());
        let coupled = generate_designs(&inp, &cand, &ModelOptions::coupled_only());
        let best_full = full
            .iter()
            .map(|d| d.accel_cycles_total)
            .fold(f64::INFINITY, f64::min);
        let best_coupled = coupled
            .iter()
            .map(|d| d.accel_cycles_total)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_full < best_coupled,
            "interface specialisation matters: {best_full} vs {best_coupled}"
        );
        // every interface in the ablation is coupled
        for d in &coupled {
            let (c, de, s, lb) = d.iface_counts();
            assert_eq!((de, s, lb), (0, 0, 0));
            assert!(c > 0);
        }
    }

    #[test]
    fn interfaces_follow_the_heuristic() {
        let o = prepare(streaming_kernel(256));
        let inp = inputs(&o, &[256.0]);
        let cand = loop_candidate(&o, &inp);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        // pipelined design: stream accesses with footprint = trip count get
        // decoupled (count == footprint < β·footprint)
        let pipe = designs
            .iter()
            .find(|d| !d.pipelined.is_empty())
            .expect("pipelined");
        let (_, d, _, _) = pipe.iface_counts();
        assert!(d >= 2, "x load and y store should be decoupled: {pipe:?}");
    }

    #[test]
    fn reused_small_array_gets_a_scratchpad() {
        // w[j] reused across outer iterations: count = N·M accesses over
        // footprint M → scratchpad.
        let mut mb = ModuleBuilder::new("t");
        let w = mb.array("w", Type::F64, &[8]);
        let x = mb.array("x", Type::F64, &[64]);
        let y = mb.array("y", Type::F64, &[64]);
        mb.function("main", &[], None, |fb| {
            fb.counted_loop(0, 64, 1, |fb, i| {
                fb.counted_loop(0, 8, 1, |fb, j| {
                    let wv = fb.load_idx(w, &[j]);
                    let xv = fb.load_idx(x, &[i]);
                    let p = fb.fmul(wv, xv);
                    fb.store_idx(y, &[i], p);
                });
            });
            fb.ret(None);
        });
        let o = prepare(mb.finish());
        let trips: Vec<f64> = o
            .ctx
            .forest
            .ids()
            .map(|l| {
                if o.ctx.forest.get(l).depth == 1 {
                    64.0
                } else {
                    8.0
                }
            })
            .collect();
        let inp = inputs(&o, &trips);
        let cand = loop_candidate(&o, &inp);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        let any_spad = designs.iter().any(|d| d.iface_counts().2 > 0);
        assert!(any_spad, "w should be cached in a scratchpad");
    }

    #[test]
    fn stencil_loads_get_a_line_buffer_plan() {
        let o = prepare(conv3x3_kernel(16, 16));
        let trips: Vec<f64> = o.ctx.forest.ids().map(|_| 14.0).collect();
        let inp = inputs(&o, &trips);
        let cand = loop_candidate(&o, &inp);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        let lb: Vec<&AcceleratorDesign> =
            designs.iter().filter(|d| d.iface_counts().3 > 0).collect();
        assert!(!lb.is_empty(), "conv3x3 should produce line-buffer plans");
        // All nine src taps go through the line buffer.
        assert!(lb.iter().any(|d| d.iface_counts().3 == 9), "{lb:?}");
        // The baseline 3-kind model never emits one.
        let base = generate_designs(&inp, &cand, &ModelOptions::baseline3());
        assert!(base.iter().all(|d| d.iface_counts().3 == 0));
        // And the line-buffer plan strictly Pareto-improves over every
        // baseline design: fewer modeled cycles at equal-or-lower area.
        let improves = lb.iter().any(|d| {
            let twins: Vec<_> = base
                .iter()
                .filter(|b| b.unroll == d.unroll && b.pipelined_detail == d.pipelined_detail)
                .collect();
            !twins.is_empty()
                && twins
                    .iter()
                    .all(|b| d.accel_cycles_total < b.accel_cycles_total && d.area <= b.area)
        });
        assert!(improves, "line buffer should dominate its baseline config");
    }

    #[test]
    fn double_buffering_hides_refill_on_reentry() {
        // Outer-entered candidate: the inner loop region is entered 64
        // times, each entry refilling the w scratchpad.
        let o = prepare({
            let mut mb = ModuleBuilder::new("t");
            let w = mb.array("w", Type::F64, &[8]);
            let y = mb.array("y", Type::F64, &[64]);
            mb.function("main", &[], None, |fb| {
                fb.counted_loop(0, 64, 1, |fb, i| {
                    fb.counted_loop(0, 8, 1, |fb, j| {
                        let wv = fb.load_idx(w, &[j]);
                        let p = fb.fmul(wv, fb.fconst(2.0));
                        fb.store_idx(y, &[i], p);
                    });
                });
                fb.ret(None);
            });
            mb.finish()
        });
        let trips: Vec<f64> = o
            .ctx
            .forest
            .ids()
            .map(|l| {
                if o.ctx.forest.get(l).depth == 1 {
                    64.0
                } else {
                    8.0
                }
            })
            .collect();
        let inp = inputs(&o, &trips);
        // Candidate = the inner loop only, entered once per outer iteration.
        let l = o
            .ctx
            .forest
            .ids()
            .find(|&l| o.ctx.forest.get(l).depth == 2)
            .expect("inner loop");
        let lp = o.ctx.forest.get(l);
        let back: u64 = lp.latches.iter().map(|&b| inp.count(b)).sum();
        let entries = inp.count(lp.header) - back;
        let cpu: u64 = lp
            .blocks
            .iter()
            .map(|&b| inp.count(b) * cayman_ir::cpu_model::block_cycles(inp.func(), b))
            .sum();
        let cand = Candidate {
            func: FuncId(0),
            blocks: lp.blocks.clone(),
            entries,
            cpu_cycles: cpu,
            is_bb: false,
        };
        assert!(cand.entries > 1);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        let dbl: Vec<&AcceleratorDesign> = designs
            .iter()
            .filter(|d| {
                d.interfaces
                    .iter()
                    .any(|(_, s)| s.kind == InterfaceKind::DoubleBuffered)
            })
            .collect();
        if dbl.is_empty() {
            // The heuristic found no scratchpad at all — nothing to hide.
            assert!(designs.iter().all(|d| d.iface_counts().2 == 0));
            return;
        }
        // A double-buffered twin exists for some base design: fewer cycles,
        // more buffer area.
        let improves = dbl.iter().any(|d| {
            designs
                .iter()
                .filter(|b| {
                    b.pipelined == d.pipelined
                        && b.unroll == d.unroll
                        && b.interfaces
                            .iter()
                            .all(|(_, s)| s.kind != InterfaceKind::DoubleBuffered)
                        && b.iface_counts().2 > 0
                })
                .any(|b| d.accel_cycles_total < b.accel_cycles_total && d.area > b.area)
        });
        assert!(improves, "double buffering trades area for hidden refills");
    }

    #[test]
    fn bb_candidate_yields_one_sequential_design() {
        let o = prepare(streaming_kernel(64));
        let inp = inputs(&o, &[64.0]);
        // candidate = the loop body block alone
        let body = cayman_ir::BlockId(2);
        let cand = Candidate {
            func: FuncId(0),
            blocks: vec![body],
            entries: inp.count(body),
            cpu_cycles: inp.count(body) * cayman_ir::cpu_model::block_cycles(inp.func(), body),
            is_bb: true,
        };
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        assert_eq!(designs.len(), 1);
        assert!(designs[0].pipelined.is_empty());
        assert_eq!(designs[0].seq_blocks, 1);
    }

    #[test]
    fn zero_entry_candidate_yields_nothing() {
        let o = prepare(streaming_kernel(64));
        let inp = inputs(&o, &[64.0]);
        let cand = Candidate {
            func: FuncId(0),
            blocks: vec![cayman_ir::BlockId(2)],
            entries: 0,
            cpu_cycles: 0,
            is_bb: true,
        };
        assert!(generate_designs(&inp, &cand, &ModelOptions::default()).is_empty());
    }
}
