//! ASAP list scheduling with interface-aware latencies and port constraints.
//!
//! This is the reproduction's stand-in for an HLS scheduler: given a set of
//! instructions (one basic block, or a whole pipelined loop body), it
//! computes the critical-path schedule length under
//!
//! * per-operation latencies from [`crate::oplib`],
//! * interface-specific memory latencies (§III-C: the scheduler "considers
//!   diverse interface-specific latencies ... when scheduling data access
//!   operations"),
//! * memory-ordering edges (stores serialise against other accesses to the
//!   same array),
//! * memory-port capacity (coupled accesses share one LSU port; each
//!   buffered array exposes the ports its [`InterfaceSpec`] declares —
//!   `banks × 2` for scratchpads — while stream interfaces (decoupled,
//!   line buffer) never contend).
//!
//! Scheduling splits into a configuration-independent half and a cheap
//! per-configuration half. `DepGraph` is the first: the def-use and
//! memory-ordering edges of an instruction list, indexed by position, built
//! once. `Prepared` adds each non-memory instruction's latency and the
//! list of loads and stores whose interfaces the caller assigns; scheduling
//! it under one assignment is one pass over position-indexed `Vec`s with
//! each latency computed once. The design
//! model prepares every block and loop body once per candidate and
//! schedules it under each configuration's assignment; [`asap_schedule`]
//! and [`critical_path_with`] (the baselines' entry point) are the
//! one-shot forms of the same walker.

use crate::inputs::RegionInputs;
use crate::interface::{InterfaceKind, InterfaceSpec};
use crate::oplib;
use cayman_ir::instr::Instr;
use cayman_ir::module::ValueDef;
use cayman_ir::{InstrId, IrView};

/// Interface assignment lookup used by the scheduler.
pub type IfaceOf<'a> = dyn Fn(InstrId) -> Option<InterfaceSpec> + 'a;

/// Outcome of scheduling one instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Critical-path length in cycles (data + ordering edges only).
    pub critical_path: u64,
    /// Port-constrained schedule length (≥ critical path).
    pub length: u64,
}

/// A load or store in an instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemOp {
    /// Whether it is a store.
    pub(crate) is_store: bool,
    /// The array it accesses through its `gep` ([`access_array`]), if known.
    pub(crate) array: Option<u32>,
}

/// The dependence edges of an instruction list (in program order), by
/// position: def-use edges from producers in the list (phis excepted — they
/// feed back across iterations, which recMII prices), and memory-ordering
/// edges (an access waits for the last store to its array; a store also
/// waits for every load of its array since that store).
#[derive(Debug, Clone)]
pub(crate) struct DepGraph {
    /// Position `k` waits for `preds[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    preds: Vec<u32>,
    /// Per position: the load or store it is, if it is one.
    mem: Vec<Option<MemOp>>,
}

impl DepGraph {
    /// The edges of `instrs`, which must be distinct.
    pub(crate) fn new(ir: &impl IrView, instrs: &[InstrId]) -> DepGraph {
        // Position lookup: a block's instructions are usually already in id
        // order and are searched in place; otherwise through a sorted index.
        let index: Vec<(InstrId, u32)> = if instrs.windows(2).all(|w| w[0] < w[1]) {
            Vec::new()
        } else {
            let mut index: Vec<(InstrId, u32)> = instrs
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, k as u32))
                .collect();
            index.sort_unstable();
            debug_assert!(
                index.windows(2).all(|w| w[0].0 != w[1].0),
                "repeated instruction"
            );
            index
        };
        let position = |i: InstrId| -> Option<u32> {
            if index.is_empty() {
                instrs.binary_search(&i).ok().map(|k| k as u32)
            } else {
                let at = index.binary_search_by_key(&i, |&(x, _)| x).ok()?;
                Some(index[at].1)
            }
        };
        let mut offsets = Vec::with_capacity(instrs.len() + 1);
        let mut preds = Vec::new();
        let mut mem = Vec::with_capacity(instrs.len());
        // Per array its last store, and the loads of each array since its
        // last store.
        let mut last_store: Vec<(u32, u32)> = Vec::new();
        let mut loads: Vec<(u32, u32)> = Vec::new();
        offsets.push(0);
        for (k, &iid) in instrs.iter().enumerate() {
            let instr = ir.instr(iid);
            instr.for_each_operand(|op| {
                let Some(v) = op.as_value() else { return };
                let ValueDef::Instr(p) = ir.value_def(v) else {
                    return;
                };
                if let Some(j) = position(p) {
                    if !matches!(ir.instr(p), Instr::Phi { .. }) {
                        preds.push(j);
                    }
                }
            });
            let op = match instr {
                Instr::Load { .. } | Instr::Store { .. } => Some(MemOp {
                    is_store: matches!(instr, Instr::Store { .. }),
                    array: access_array(ir, iid),
                }),
                _ => None,
            };
            if let Some(MemOp {
                is_store,
                array: Some(arr),
            }) = op
            {
                let last = last_store.iter_mut().find(|e| e.0 == arr);
                if let Some(&(_, st)) = last.as_deref() {
                    preds.push(st);
                }
                if is_store {
                    loads.retain(|&(a, j)| {
                        if a == arr {
                            preds.push(j);
                        }
                        a != arr
                    });
                    match last {
                        Some(e) => e.1 = k as u32,
                        None => last_store.push((arr, k as u32)),
                    }
                } else {
                    loads.push((arr, k as u32));
                }
            }
            mem.push(op);
            offsets.push(preds.len() as u32);
        }
        DepGraph {
            offsets,
            preds,
            mem,
        }
    }

    /// The load or store at position `k`, if it is one.
    pub(crate) fn mem_op(&self, k: usize) -> Option<MemOp> {
        self.mem[k]
    }

    /// Longest path through the edges (at least 1) when position `k` takes
    /// `latency[k]` cycles, every instruction issuing as soon as its
    /// predecessors finish. A predecessor later in the list counts as
    /// issuing at cycle 0.
    pub(crate) fn critical_path(&self, latency: &[u64]) -> u64 {
        debug_assert_eq!(latency.len(), self.mem.len());
        let mut start = vec![0u64; latency.len()];
        let mut cp = 0u64;
        for (k, &lat) in latency.iter().enumerate() {
            let preds = &self.preds[self.offsets[k] as usize..self.offsets[k + 1] as usize];
            let mut ready = 0;
            for &j in preds {
                ready = ready.max(start[j as usize] + latency[j as usize]);
            }
            start[k] = ready;
            cp = cp.max(ready + lat);
        }
        cp.max(1)
    }
}

/// An instruction list prepared for interface-aware scheduling under any
/// number of interface assignments: its `DepGraph`, the latency of every
/// instruction that is not a load or store, and the loads and stores whose
/// specs the caller supplies, in list order ([`Prepared::mem_instrs`]).
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    graph: DepGraph,
    /// Per position: the oplib latency (unused at loads and stores).
    op_latency: Vec<u64>,
    /// Position and instruction of each load and store, in order.
    mem: Vec<(u32, InstrId)>,
}

impl Prepared {
    /// Prepares `instrs` (program order, distinct).
    pub(crate) fn new(ir: &impl IrView, instrs: &[InstrId]) -> Prepared {
        let graph = DepGraph::new(ir, instrs);
        let mut op_latency = Vec::with_capacity(instrs.len());
        let mut mem = Vec::new();
        for (k, &i) in instrs.iter().enumerate() {
            if graph.mem_op(k).is_some() {
                mem.push((k as u32, i));
                op_latency.push(0);
            } else {
                op_latency.push(oplib::accel_latency(ir.instr(i)));
            }
        }
        Prepared {
            graph,
            op_latency,
            mem,
        }
    }

    /// The loads and stores, in the order [`Prepared::schedule`] takes
    /// their specs.
    pub(crate) fn mem_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.mem.iter().map(|&(_, i)| i)
    }

    /// The `m`-th load or store (in [`Prepared::mem_instrs`] order).
    pub(crate) fn mem_op(&self, m: usize) -> MemOp {
        self.graph.mem[self.mem[m].0 as usize].expect("a load or store")
    }

    /// Per-position latencies when the `m`-th load or store uses `specs[m]`.
    fn latencies(&self, specs: &[InterfaceSpec]) -> Vec<u64> {
        debug_assert_eq!(specs.len(), self.mem.len());
        let mut lat = self.op_latency.clone();
        for (m, &(k, _)) in self.mem.iter().enumerate() {
            lat[k as usize] = mem_latency(self.mem_op(m), specs[m]);
        }
        lat
    }

    /// Critical path when the `m`-th load or store uses `specs[m]`.
    pub(crate) fn critical_path(&self, specs: &[InterfaceSpec]) -> u64 {
        self.graph.critical_path(&self.latencies(specs))
    }

    /// ASAP-schedules the list when the `m`-th load or store uses
    /// `specs[m]`.
    ///
    /// `coupled_ports` is the size of the shared LSU port pool (normally 1).
    /// With `bound_mem_ports`, buffered (scratchpad-family) accesses are
    /// additionally bounded per array by the ports their spec exposes;
    /// pipelined loop bodies pass `false` because the II model prices port
    /// contention itself (`resMII`).
    pub(crate) fn schedule(
        &self,
        specs: &[InterfaceSpec],
        coupled_ports: u64,
        bound_mem_ports: bool,
    ) -> Schedule {
        let critical_path = self.critical_path(specs);
        // Port-constrained lower bounds: one shared pool for coupled
        // accesses, and per-array bounds for buffered interfaces (every
        // array's buffer has its own ports, so arrays do not contend with
        // each other).
        let mut coupled_uses = 0u64;
        let mut per_array = PortUse::default();
        for (m, spec) in specs.iter().enumerate() {
            match spec.kind {
                InterfaceKind::Coupled => coupled_uses += 1,
                _ => {
                    if let Some(p) = spec.mem_ports() {
                        per_array.add(self.mem_op(m).array, p);
                    }
                }
            }
        }
        let mut length = critical_path;
        if coupled_ports > 0 {
            length = length.max(coupled_uses.div_ceil(coupled_ports));
        }
        if bound_mem_ports {
            for &(_, uses, ports) in &per_array.0 {
                if ports > 0 {
                    length = length.max(uses.div_ceil(ports));
                }
            }
        }
        Schedule {
            critical_path,
            length,
        }
    }
}

/// Uses and ports per array of the buffered accesses in one list: `(array,
/// uses, max ports)`, an unknown array counting as `u32::MAX`.
#[derive(Debug, Default)]
pub(crate) struct PortUse(pub(crate) Vec<(u32, u64, u64)>);

impl PortUse {
    pub(crate) fn add(&mut self, array: Option<u32>, ports: u64) {
        let arr = array.unwrap_or(u32::MAX);
        match self.0.iter_mut().find(|e| e.0 == arr) {
            Some(e) => {
                e.1 += 1;
                e.2 = e.2.max(ports);
            }
            None => self.0.push((arr, 1, ports)),
        }
    }
}

/// Latency of a load or store through `spec`.
pub(crate) fn mem_latency(op: MemOp, spec: InterfaceSpec) -> u64 {
    if op.is_store {
        spec.store_latency()
    } else {
        spec.load_latency()
    }
}

/// ASAP-schedules `instrs` (in program order, distinct) and returns the
/// schedule, with each load and store taking `iface`'s spec (coupled when
/// it has none). The design model prepares a list once and schedules it
/// under many assignments instead.
pub fn asap_schedule(
    ir: &impl IrView,
    instrs: &[InstrId],
    iface: &IfaceOf<'_>,
    coupled_ports: u64,
    bound_mem_ports: bool,
) -> Schedule {
    let p = Prepared::new(ir, instrs);
    let specs: Vec<InterfaceSpec> = p
        .mem_instrs()
        .map(|i| iface(i).unwrap_or_else(InterfaceSpec::coupled))
        .collect();
    p.schedule(&specs, coupled_ports, bound_mem_ports)
}

/// Critical-path length of `instrs` (program order, distinct) under an
/// arbitrary per-instruction latency function, over the same dependence
/// edges as [`asap_schedule`]; `latency` is called once per instruction. Used by
/// the baseline models (e.g. QsCores' scan-chain latencies) which are not
/// expressible as [`InterfaceKind`]s.
pub fn critical_path_with(
    ir: &impl IrView,
    instrs: &[InstrId],
    latency: &dyn Fn(InstrId) -> u64,
) -> u64 {
    let lat: Vec<u64> = instrs.iter().map(|&i| latency(i)).collect();
    DepGraph::new(ir, instrs).critical_path(&lat)
}

/// The array accessed by a load/store (via its gep), as a raw id.
pub fn access_array(ir: &impl IrView, iid: InstrId) -> Option<u32> {
    let ptr = match ir.instr(iid) {
        Instr::Load { ptr, .. } => *ptr,
        Instr::Store { ptr, .. } => *ptr,
        _ => return None,
    };
    match ir.value_def(ptr.as_value()?) {
        ValueDef::Instr(g) => match ir.instr(g) {
            Instr::Gep { array, .. } => Some(array.0),
            _ => None,
        },
        _ => None,
    }
}

/// Schedules all instructions of one basic block of a candidate.
pub fn schedule_block(
    r: &RegionInputs<'_>,
    b: cayman_ir::BlockId,
    iface: &IfaceOf<'_>,
    coupled_ports: u64,
) -> Schedule {
    asap_schedule(r, &r.block(b).instrs, iface, coupled_ports, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::COUPLED_LOAD_LATENCY;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::{FuncId, Type};

    fn coupled(_: InstrId) -> Option<InterfaceSpec> {
        Some(InterfaceSpec::coupled())
    }
    fn decoupled(_: InstrId) -> Option<InterfaceSpec> {
        Some(InterfaceSpec::decoupled())
    }

    /// Schedules one block read straight from its function.
    fn whole_block(
        f: &cayman_ir::Function,
        b: cayman_ir::BlockId,
        iface: &IfaceOf<'_>,
    ) -> Schedule {
        asap_schedule(f, &f.block(b).instrs, iface, 1, true)
    }

    /// Builds `y[i] = k*x[i]+b` body and returns (module, body block).
    fn saxpy_body() -> (cayman_ir::Module, cayman_ir::BlockId) {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        let y = mb.array("y", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let k = fb.fconst(3.0);
                let c = fb.fconst(1.0);
                let t = fb.fmul(k, xv);
                let v = fb.fadd(t, c);
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        (mb.finish(), cayman_ir::BlockId(2))
    }

    #[test]
    fn decoupled_shortens_critical_path() {
        let (m, body) = saxpy_body();
        let f = m.function(FuncId(0));
        let s_coupled = whole_block(f, body, &coupled);
        let s_dec = whole_block(f, body, &decoupled);
        // gep(1) + load(4 vs 1) + fmul(4) + fadd(3) + gep+store(1)
        assert!(
            s_dec.critical_path + 3 == s_coupled.critical_path,
            "coupled {} vs decoupled {}",
            s_coupled.critical_path,
            s_dec.critical_path
        );
        assert!(s_dec.length < s_coupled.length);
    }

    #[test]
    fn port_bound_kicks_in() {
        // Eight independent coupled loads on one port need ≥ 8 cycles even
        // though each is latency 4 in parallel.
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        let y = mb.array("y", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            let mut acc = fb.fconst(0.0);
            for i in 0..8 {
                let idx = fb.iconst(i);
                let v = fb.load_idx(x, &[idx]);
                acc = fb.fadd(acc, v);
            }
            let z = fb.iconst(0);
            fb.store_idx(y, &[z], acc);
            fb.ret(None);
        });
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let s = whole_block(f, cayman_ir::BlockId(0), &coupled);
        assert!(s.length >= 9, "8 loads + 1 store on one port: {}", s.length);
    }

    #[test]
    fn store_orders_after_load_same_array() {
        // load x[0] (unused), then store a constant: to x it must wait for
        // the load (ordering edge); to y it need not.
        let path = |same: bool| {
            let mut mb = ModuleBuilder::new("t");
            let x = mb.array("x", Type::F64, &[8]);
            let y = mb.array("y", Type::F64, &[8]);
            mb.function("f", &[], None, |fb| {
                let i0 = fb.iconst(0);
                let i1 = fb.iconst(1);
                fb.load_idx(x, &[i0]);
                fb.store_idx(if same { x } else { y }, &[i1], fb.fconst(1.0));
                fb.ret(None);
            });
            let m = mb.finish();
            let f = m.function(FuncId(0));
            whole_block(f, cayman_ir::BlockId(0), &coupled).critical_path
        };
        // gep + coupled load, then the store after it.
        assert_eq!(path(true), path(false) + 1);
        assert!(path(true) > 1 + COUPLED_LOAD_LATENCY);
    }

    #[test]
    fn empty_block_has_unit_length() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| fb.ret(None));
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let s = whole_block(f, cayman_ir::BlockId(0), &coupled);
        assert_eq!(s.length, 1);
    }
}
