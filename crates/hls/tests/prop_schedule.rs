//! The dense dependence walker against the map-based scheduler it replaced.
//!
//! `reference_asap` and `reference_critical_path` below are the scheduler
//! as it was written before the dense `DepGraph` — one `HashMap` per def-use index,
//! start time, last store and loads since it, latencies looked up per edge.
//! Over random testkit programs, every block, every loop body in reverse
//! post-order, a shuffled copy of each block (producers after consumers)
//! a random subset of each block (the NOVIA-style filtered list) and all of
//! a function's loads and stores (where port bounds exceed the path), under
//! random interface assignments, port pools and port bounding, the dense
//! walker must give the same `critical_path` and `length`; under
//! QsCores-style and random per-instruction latencies, the same critical
//! path.

use cayman_analysis::ctx::FuncCtx;
use cayman_hls::interface::InterfaceSpec;
use cayman_hls::oplib::accel_latency;
use cayman_hls::schedule::{access_array, asap_schedule, critical_path_with, IfaceOf, Schedule};
use cayman_ir::instr::{Instr, Operand};
use cayman_ir::module::ValueDef;
use cayman_ir::{Function, InstrId, IrView};
use cayman_testkit::program::arbitrary_module;
use cayman_testkit::{prop_assert_eq, prop_check, Rng};
use std::collections::HashMap;

const CASES: u64 = 64;

/// Latency of one instruction given its interface assignment, looked up
/// afresh at every use as the map-based scheduler did.
fn latency_with_iface(ir: &impl IrView, iid: InstrId, iface: &IfaceOf<'_>) -> u64 {
    match ir.instr(iid) {
        Instr::Load { .. } => iface(iid)
            .unwrap_or_else(InterfaceSpec::coupled)
            .load_latency(),
        Instr::Store { .. } => iface(iid)
            .unwrap_or_else(InterfaceSpec::coupled)
            .store_latency(),
        other => accel_latency(other),
    }
}

/// The map-based ASAP scheduler the dense walker replaced.
fn reference_asap(
    ir: &impl IrView,
    instrs: &[InstrId],
    iface: &IfaceOf<'_>,
    coupled_ports: u64,
    bound_mem_ports: bool,
) -> Schedule {
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
    let mut critical_path = 0u64;
    for &iid in instrs {
        let instr = ir.instr(iid);
        let mut ready = 0u64;
        instr.for_each_operand(|op| {
            if let Some(p) = producer(op) {
                if matches!(ir.instr(p), Instr::Phi { .. }) {
                    return;
                }
                let p_end = start.get(&p).copied().unwrap_or(0) + latency_with_iface(ir, p, iface);
                ready = ready.max(p_end);
            }
        });
        if let Instr::Load { .. } | Instr::Store { .. } = instr {
            if let Some(arr) = access_array(ir, iid) {
                if let Some(&st) = last_store.get(&arr) {
                    let st_end =
                        start.get(&st).copied().unwrap_or(0) + latency_with_iface(ir, st, iface);
                    ready = ready.max(st_end);
                }
                if matches!(instr, Instr::Store { .. }) {
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
    let mut coupled_uses = 0u64;
    let mut per_array: HashMap<u32, (u64, u64)> = HashMap::new();
    for &iid in instrs {
        if matches!(ir.instr(iid), Instr::Load { .. } | Instr::Store { .. }) {
            let spec = iface(iid).unwrap_or_else(InterfaceSpec::coupled);
            match spec.kind {
                cayman_hls::interface::InterfaceKind::Coupled => coupled_uses += 1,
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
    }
}

/// The map-based critical path under an arbitrary latency function.
fn reference_critical_path(
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

/// A random spec, or none (the scheduler's coupled default).
fn random_spec(rng: &mut Rng) -> Option<InterfaceSpec> {
    let n = rng.range_u32(1, 9);
    let mut spec = match rng.range_u32(0, 7) {
        0 => return None,
        1 => InterfaceSpec::coupled(),
        2 => InterfaceSpec::decoupled(),
        3 => InterfaceSpec::scratchpad(n),
        4 => InterfaceSpec::banked(n),
        5 => InterfaceSpec::double_buffered(n),
        _ => InterfaceSpec::line_buffer(n + 1),
    };
    if spec.kind.is_scratchpad_family() && rng.bool() {
        // Few (or no) ports, so per-array port bounds bind.
        spec.ports = rng.range_u32(0, 2) as u16;
    }
    Some(spec)
}

/// A spec for every load and store: drawn per instruction, or (as the
/// design model assigns them) one per array.
fn random_specs(f: &Function, rng: &mut Rng) -> HashMap<InstrId, InterfaceSpec> {
    let per_array = rng.bool();
    let mut of_array: HashMap<Option<u32>, Option<InterfaceSpec>> = HashMap::new();
    let mut specs = HashMap::new();
    for b in f.block_ids() {
        for &i in &f.block(b).instrs {
            if !matches!(f.instr(i), Instr::Load { .. } | Instr::Store { .. }) {
                continue;
            }
            let spec = if per_array {
                *of_array
                    .entry(access_array(f, i))
                    .or_insert_with(|| random_spec(rng))
            } else {
                random_spec(rng)
            };
            if let Some(spec) = spec {
                specs.insert(i, spec);
            }
        }
    }
    specs
}

/// The instruction lists the models schedule, plus reorderings and subsets.
fn instruction_lists(f: &Function, rng: &mut Rng) -> Vec<Vec<InstrId>> {
    let ctx = FuncCtx::compute(f);
    let mut lists = Vec::new();
    for b in f.block_ids() {
        let instrs = f.block(b).instrs.clone();
        let mut shuffled = instrs.clone();
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.range_usize(0, k + 1));
        }
        let subset: Vec<InstrId> = instrs.iter().copied().filter(|_| rng.bool()).collect();
        lists.extend([instrs, shuffled, subset]);
    }
    // Every load and store of the function without their address
    // arithmetic: port bounds outgrow the critical path.
    lists.push(
        f.block_ids()
            .flat_map(|b| f.block(b).instrs.iter().copied())
            .filter(|&i| matches!(f.instr(i), Instr::Load { .. } | Instr::Store { .. }))
            .collect(),
    );
    for l in ctx.forest.ids() {
        let mut blocks: Vec<(usize, cayman_ir::BlockId)> = ctx
            .forest
            .get(l)
            .blocks
            .iter()
            .filter_map(|&b| ctx.cfg.rpo_index[b.index()].map(|i| (i, b)))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        lists.push(
            blocks
                .iter()
                .flat_map(|&(_, b)| f.block(b).instrs.iter().copied())
                .collect(),
        );
    }
    lists
}

#[test]
fn dense_asap_matches_the_map_scheduler() {
    prop_check!(cases = CASES, |rng| {
        let module = arbitrary_module(rng);
        for fid in module.function_ids() {
            let f = module.function(fid);
            let specs = random_specs(f, rng);
            let iface = |i: InstrId| specs.get(&i).copied();
            for instrs in instruction_lists(f, rng) {
                let coupled_ports = rng.range_u32(0, 4) as u64;
                let bound = rng.bool();
                let dense = asap_schedule(f, &instrs, &iface, coupled_ports, bound);
                let reference = reference_asap(f, &instrs, &iface, coupled_ports, bound);
                prop_assert_eq!(dense, reference);
            }
        }
        Ok(())
    });
}

#[test]
fn dense_critical_path_matches_the_map_walker() {
    prop_check!(cases = CASES, |rng| {
        let module = arbitrary_module(rng);
        for fid in module.function_ids() {
            let f = module.function(fid);
            // QsCores' scan-chain latencies.
            let qscores = |i: InstrId| match f.instr(i) {
                Instr::Load { .. } => 3,
                Instr::Store { .. } => 2,
                other => accel_latency(other),
            };
            let random: HashMap<InstrId, u64> = f
                .block_ids()
                .flat_map(|b| f.block(b).instrs.clone())
                .map(|i| (i, rng.range_u32(0, 12) as u64))
                .collect();
            let random = |i: InstrId| random[&i];
            for instrs in instruction_lists(f, rng) {
                for latency in [&qscores as &dyn Fn(InstrId) -> u64, &random] {
                    let dense = critical_path_with(f, &instrs, latency);
                    prop_assert_eq!(dense, reference_critical_path(f, &instrs, latency));
                }
            }
        }
        Ok(())
    });
}
