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

use crate::inputs::RegionInputs;
use crate::interface::{InterfaceKind, InterfaceSpec};
use crate::oplib;
use cayman_ir::instr::{Instr, Operand};
use cayman_ir::module::ValueDef;
use cayman_ir::{InstrId, IrView};
use std::collections::HashMap;

/// Interface assignment lookup used by the scheduler.
pub type IfaceOf<'a> = dyn Fn(InstrId) -> Option<InterfaceSpec> + 'a;

/// Outcome of scheduling one instruction set.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Critical-path length in cycles (data + ordering edges only).
    pub critical_path: u64,
    /// Port-constrained schedule length (≥ critical path).
    pub length: u64,
    /// Start cycle per instruction (ASAP).
    pub start: HashMap<InstrId, u64>,
}

/// Latency of one instruction given its interface assignment.
pub fn latency_with_iface(ir: &impl IrView, iid: InstrId, iface: &IfaceOf<'_>) -> u64 {
    match ir.instr(iid) {
        Instr::Load { .. } => iface(iid)
            .unwrap_or_else(InterfaceSpec::coupled)
            .load_latency(),
        Instr::Store { .. } => iface(iid)
            .unwrap_or_else(InterfaceSpec::coupled)
            .store_latency(),
        other => oplib::accel_latency(other),
    }
}

/// ASAP-schedules `instrs` (in program order) and returns the schedule.
///
/// `coupled_ports` is the size of the shared LSU port pool (normally 1).
/// With `bound_mem_ports`, buffered (scratchpad-family) accesses are
/// additionally bounded per array by the ports their [`InterfaceSpec`]
/// exposes; pipelined loop bodies pass `false` because the II model prices
/// port contention itself (`resMII`).
pub fn asap_schedule(
    ir: &impl IrView,
    instrs: &[InstrId],
    iface: &IfaceOf<'_>,
    coupled_ports: u64,
    bound_mem_ports: bool,
) -> Schedule {
    let in_set: HashMap<InstrId, usize> = instrs.iter().enumerate().map(|(i, &x)| (x, i)).collect();

    // Map producing instruction per value for def-use edges.
    let producer = |op: Operand| -> Option<InstrId> {
        match ir.value_def(op.as_value()?) {
            ValueDef::Instr(i) if in_set.contains_key(&i) => Some(i),
            _ => None,
        }
    };

    let mut start: HashMap<InstrId, u64> = HashMap::new();
    // Last store / accesses per array for ordering edges.
    let mut last_store: HashMap<u32, InstrId> = HashMap::new();
    let mut accesses_since_store: HashMap<u32, Vec<InstrId>> = HashMap::new();

    let mut critical_path = 0u64;
    for &iid in instrs {
        let instr = ir.instr(iid);
        let mut ready = 0u64;
        instr.for_each_operand(|op| {
            if let Some(p) = producer(op) {
                // Phis feed back across iterations; treated as available at 0
                // (loop-carried constraints are handled by recMII).
                if matches!(ir.instr(p), Instr::Phi { .. }) {
                    return;
                }
                let p_end = start.get(&p).copied().unwrap_or(0) + latency_with_iface(ir, p, iface);
                ready = ready.max(p_end);
            }
        });

        // Memory ordering.
        if let Instr::Load { .. } | Instr::Store { .. } = instr {
            if let Some(arr) = access_array(ir, iid) {
                if let Some(&st) = last_store.get(&arr) {
                    let st_end =
                        start.get(&st).copied().unwrap_or(0) + latency_with_iface(ir, st, iface);
                    ready = ready.max(st_end);
                }
                if matches!(instr, Instr::Store { .. }) {
                    // Stores also wait for earlier loads of the same array.
                    for &a in accesses_since_store.get(&arr).into_iter().flatten() {
                        let a_end =
                            start.get(&a).copied().unwrap_or(0) + latency_with_iface(ir, a, iface);
                        ready = ready.max(a_end);
                    }
                    last_store.insert(arr, iid);
                    accesses_since_store.remove(&arr);
                } else {
                    accesses_since_store.entry(arr).or_default().push(iid);
                }
            }
        }

        start.insert(iid, ready);
        critical_path = critical_path.max(ready + latency_with_iface(ir, iid, iface));
    }

    // Port-constrained lower bounds: one shared pool for coupled accesses,
    // and per-array bounds for buffered interfaces (every array's buffer
    // has its own ports, so arrays do not contend with each other).
    let mut coupled_uses = 0u64;
    let mut per_array: HashMap<u32, (u64, u64)> = HashMap::new(); // (uses, ports)
    for &iid in instrs {
        if matches!(ir.instr(iid), Instr::Load { .. } | Instr::Store { .. }) {
            let spec = iface(iid).unwrap_or_else(InterfaceSpec::coupled);
            match spec.kind {
                InterfaceKind::Coupled => coupled_uses += 1,
                _ => {
                    if let Some(p) = spec.mem_ports() {
                        let arr = access_array(ir, iid).unwrap_or(u32::MAX);
                        let e = per_array.entry(arr).or_insert((0, 0));
                        e.0 += 1;
                        e.1 = e.1.max(p);
                    }
                }
            }
        }
    }
    let mut length = critical_path.max(1);
    if coupled_ports > 0 {
        length = length.max(coupled_uses.div_ceil(coupled_ports));
    }
    if bound_mem_ports {
        for &(uses, ports) in per_array.values() {
            if ports > 0 {
                length = length.max(uses.div_ceil(ports));
            }
        }
    }

    Schedule {
        critical_path: critical_path.max(1),
        length,
        start,
    }
}

/// Critical-path length of `instrs` (program order) under an arbitrary
/// per-instruction latency function, with the same def-use and
/// memory-ordering edges as [`asap_schedule`]. Used by the baseline models
/// (e.g. QsCores' scan-chain latencies) which are not expressible as
/// [`InterfaceKind`]s.
pub fn critical_path_with(
    ir: &impl IrView,
    instrs: &[InstrId],
    latency: &dyn Fn(InstrId) -> u64,
) -> u64 {
    let in_set: HashMap<InstrId, usize> = instrs.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let producer = |op: Operand| -> Option<InstrId> {
        match ir.value_def(op.as_value()?) {
            ValueDef::Instr(i) if in_set.contains_key(&i) => Some(i),
            _ => None,
        }
    };
    let mut start: HashMap<InstrId, u64> = HashMap::new();
    let mut last_store: HashMap<u32, InstrId> = HashMap::new();
    let mut accesses_since_store: HashMap<u32, Vec<InstrId>> = HashMap::new();
    let mut cp = 0u64;
    for &iid in instrs {
        let instr = ir.instr(iid);
        let mut ready = 0u64;
        instr.for_each_operand(|op| {
            if let Some(p) = producer(op) {
                if matches!(ir.instr(p), Instr::Phi { .. }) {
                    return;
                }
                ready = ready.max(start.get(&p).copied().unwrap_or(0) + latency(p));
            }
        });
        if let Instr::Load { .. } | Instr::Store { .. } = instr {
            if let Some(arr) = access_array(ir, iid) {
                if let Some(&st) = last_store.get(&arr) {
                    ready = ready.max(start.get(&st).copied().unwrap_or(0) + latency(st));
                }
                if matches!(instr, Instr::Store { .. }) {
                    for &a in accesses_since_store.get(&arr).into_iter().flatten() {
                        ready = ready.max(start.get(&a).copied().unwrap_or(0) + latency(a));
                    }
                    last_store.insert(arr, iid);
                    accesses_since_store.remove(&arr);
                } else {
                    accesses_since_store.entry(arr).or_default().push(iid);
                }
            }
        }
        start.insert(iid, ready);
        cp = cp.max(ready + latency(iid));
    }
    cp.max(1)
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
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            let i0 = fb.iconst(0);
            let i1 = fb.iconst(1);
            let v = fb.load_idx(x, &[i0]);
            fb.store_idx(x, &[i1], v);
            fb.ret(None);
        });
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let s = whole_block(f, cayman_ir::BlockId(0), &coupled);
        // load at ≥1 (after gep), store only after load completes (4 cycles).
        let block = &f.block(cayman_ir::BlockId(0)).instrs;
        let load = block[1];
        let store = block[3];
        assert!(s.start[&store] >= s.start[&load] + 4);
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
