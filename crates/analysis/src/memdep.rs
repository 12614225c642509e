//! Loop-carried dependence analysis (§III-B: "Cayman identifies loop-carried
//! dependencies for every loop region").
//!
//! Two dependence species feed the accelerator model:
//!
//! * **memory recurrences** — a store and a load hit the *same* address in
//!   different iterations (the paper's `z[i] += …` example: `st z`/`ld z` are
//!   invariant in the `j` loop, so the accumulation is carried through
//!   memory). Conservative fallbacks apply when addresses are not affine.
//! * **scalar recurrences** — a header phi whose latch value depends on the
//!   phi itself through non-trivial operations (register-carried
//!   accumulation). Plain induction variables (`phi + const`) are excluded;
//!   they never constrain pipelining beyond II = 1.
//!
//! The recorded dependence cycles (instruction chains) are what the HLS model
//! turns into recMII.

use crate::access::AccessAnalysis;
use crate::ctx::FuncCtx;
use crate::scev::Scev;
use cayman_ir::instr::{Instr, Operand};
use cayman_ir::loops::LoopId;
use cayman_ir::module::ValueDef;
use cayman_ir::{Function, InstrId, IrView};

/// A loop-carried dependence through memory.
#[derive(Debug, Clone)]
pub struct MemRecurrence {
    /// The store side.
    pub store: InstrId,
    /// The load side.
    pub load: InstrId,
    /// Dependence distance in iterations (`1` = next iteration; conservative
    /// default when unknown).
    pub distance: u64,
    /// Instructions on the load→store value chain (inclusive), whose summed
    /// latency bounds the II.
    pub chain: Vec<InstrId>,
}

/// A loop-carried dependence through a register (header phi).
#[derive(Debug, Clone)]
pub struct ScalarRecurrence {
    /// The carrying phi.
    pub phi: InstrId,
    /// Instructions on the phi→phi cycle (excluding the phi itself).
    pub chain: Vec<InstrId>,
}

/// All loop-carried dependencies of one loop.
#[derive(Debug, Clone, Default)]
pub struct LoopDeps {
    /// Memory-carried recurrences.
    pub mem: Vec<MemRecurrence>,
    /// Register-carried recurrences (excluding pure induction variables).
    pub scalar: Vec<ScalarRecurrence>,
    /// Whether some access in the loop could not be analysed and a
    /// dependence had to be assumed conservatively.
    pub conservative: bool,
}

impl LoopDeps {
    /// Whether the loop carries any dependence (the paper's unrolling
    /// eligibility test: "tries unrolling loops without loop-carried
    /// dependencies").
    pub fn has_carried(&self) -> bool {
        !self.mem.is_empty() || !self.scalar.is_empty() || self.conservative
    }

    /// Whether every carried dependence is a *pure scalar reduction*: a
    /// register accumulation through one commutative operation. Such loops
    /// can still be unrolled by splitting the accumulator into partial sums
    /// (the standard HLS reduction transform); the recurrence II is untouched
    /// but throughput scales with the unroll factor.
    pub fn is_reduction_only(&self, ir: &impl IrView) -> bool {
        use cayman_ir::instr::BinOp;
        if !self.mem.is_empty() || self.conservative || self.scalar.is_empty() {
            return false;
        }
        self.scalar.iter().all(|r| {
            matches!(r.chain.as_slice(), [single] if matches!(
                ir.instr(*single),
                Instr::Binary {
                    op: BinOp::Add
                        | BinOp::Mul
                        | BinOp::FAdd
                        | BinOp::FMul
                        | BinOp::Min
                        | BinOp::Max
                        | BinOp::FMin
                        | BinOp::FMax,
                    ..
                }
            ))
        })
    }
}

/// Computes [`LoopDeps`] for every loop of a function.
pub fn analyse_loop_deps(
    func: &Function,
    ctx: &FuncCtx,
    scev: &mut Scev<'_>,
    accesses: &AccessAnalysis,
) -> Vec<LoopDeps> {
    let _s = cayman_obs::span!("analyse.memdep");
    ctx.forest
        .ids()
        .map(|l| analyse_one_loop(func, ctx, scev, accesses, l))
        .collect()
}

fn analyse_one_loop(
    func: &Function,
    ctx: &FuncCtx,
    scev: &mut Scev<'_>,
    accesses: &AccessAnalysis,
    l: LoopId,
) -> LoopDeps {
    let lp = ctx.forest.get(l);
    let blocks = &lp.blocks;
    let mut deps = LoopDeps::default();

    // ---- memory recurrences ------------------------------------------------
    let in_loop: Vec<&crate::access::AccessInfo> = accesses.within(blocks).collect();
    for st in in_loop.iter().filter(|a| a.is_store) {
        for ld in in_loop.iter().filter(|a| !a.is_store) {
            if st.array != ld.array {
                continue;
            }
            match (&st.addr, &ld.addr) {
                (Some(sa), Some(la)) => {
                    // Symbols defined inside the loop make the comparison
                    // unreliable → conservative dependence.
                    let symbolic_inside = sa
                        .symbols
                        .keys()
                        .chain(la.symbols.keys())
                        .any(|&s| blocks.contains(&scev.def_block_of(s)));
                    if symbolic_inside {
                        deps.conservative = true;
                        continue;
                    }
                    let diff = sa.sub(la);
                    let sc = sa.coeff(l);
                    let lc = la.coeff(l);
                    if sc == lc {
                        // Same per-iteration movement. Remaining difference
                        // decides the distance.
                        let mut rest = diff.clone();
                        rest.iv_coeffs.remove(&l);
                        if !rest.is_constant() {
                            // Differ by an inner/outer IV or symbol: may
                            // collide across iterations → conservative.
                            deps.conservative = true;
                            continue;
                        }
                        let delta = rest.constant;
                        if sc == 0 {
                            if delta == 0 {
                                // Identical, loop-invariant address: carried
                                // every iteration (the z[i] accumulation).
                                deps.mem.push(MemRecurrence {
                                    store: st.instr,
                                    load: ld.instr,
                                    distance: 1,
                                    chain: value_chain(func, ld.instr, st.instr, blocks),
                                });
                            }
                            // delta != 0 with both invariant: disjoint
                            // addresses, no dependence.
                        } else if delta % sc == 0 {
                            let d = delta / sc;
                            if d > 0 {
                                // store[i] read back d iterations later
                                deps.mem.push(MemRecurrence {
                                    store: st.instr,
                                    load: ld.instr,
                                    distance: d as u64,
                                    chain: value_chain(func, ld.instr, st.instr, blocks),
                                });
                            }
                            // d == 0: same-iteration flow, handled by intra-
                            // iteration scheduling; d < 0: anti direction,
                            // no pipeline constraint in our model.
                        }
                        // non-divisible delta: accesses interleave without
                        // colliding.
                    } else {
                        // Different strides over the same array: assume a
                        // dependence (conservative).
                        deps.conservative = true;
                    }
                }
                _ => {
                    deps.conservative = true;
                }
            }
        }
    }

    // ---- scalar recurrences ------------------------------------------------
    for &iid in &func.block(lp.header).instrs {
        let Instr::Phi { incomings, .. } = func.instr(iid) else {
            break;
        };
        let Some(phi_val) = func.result_of(iid) else {
            continue;
        };
        // Pure IVs are exempt.
        if scev.iv_of(phi_val).is_some() {
            continue;
        }
        // Does the latch incoming reach back to the phi?
        let latch_vals: Vec<Operand> = incomings
            .iter()
            .filter(|(b, _)| lp.latches.contains(b))
            .map(|(_, v)| *v)
            .collect();
        for lv in latch_vals {
            let Some(start) = lv.as_value() else { continue };
            if let Some(chain) = def_chain_to(func, start, phi_val, blocks) {
                deps.scalar.push(ScalarRecurrence { phi: iid, chain });
                break;
            }
        }
    }

    deps
}

/// DFS over value definitions from `from` back to `target` (a phi), staying
/// inside `blocks`. Returns the instructions on one such path.
fn def_chain_to(
    func: &Function,
    from: cayman_ir::ValueId,
    target: cayman_ir::ValueId,
    blocks: &[cayman_ir::BlockId],
) -> Option<Vec<InstrId>> {
    fn go(
        func: &Function,
        v: cayman_ir::ValueId,
        target: cayman_ir::ValueId,
        blocks: &[cayman_ir::BlockId],
        seen: &mut Vec<cayman_ir::ValueId>,
        path: &mut Vec<InstrId>,
    ) -> bool {
        if v == target {
            return true;
        }
        if seen.contains(&v) {
            return false;
        }
        seen.push(v);
        let ValueDef::Instr(iid) = func.values[v.index()] else {
            return false;
        };
        let Some(b) = func.containing_block(iid) else {
            return false;
        };
        if !blocks.contains(&b) {
            return false;
        }
        // Phis other than the target stop the walk (they carry other values).
        if matches!(func.instr(iid), Instr::Phi { .. }) {
            return false;
        }
        path.push(iid);
        let mut found = false;
        func.instr(iid).for_each_operand(|op| {
            if found {
                return;
            }
            if let Operand::Value(u) = op {
                if go(func, u, target, blocks, seen, path) {
                    found = true;
                }
            }
        });
        if !found {
            path.pop();
        }
        found
    }
    let mut seen = Vec::new();
    let mut path = Vec::new();
    go(func, from, target, blocks, &mut seen, &mut path).then_some(path)
}

/// Instructions on the load→store value chain (both inclusive).
fn value_chain(
    func: &Function,
    load: InstrId,
    store: InstrId,
    blocks: &[cayman_ir::BlockId],
) -> Vec<InstrId> {
    // The store's value operand leads back to the load result.
    let Instr::Store { value, .. } = func.instr(store) else {
        return vec![load, store];
    };
    let Some(load_val) = func.result_of(load) else {
        return vec![load, store];
    };
    let mut chain = vec![load];
    if let Some(start) = value.as_value() {
        if let Some(mid) = def_chain_to_instr(func, start, load_val, blocks) {
            chain.extend(mid);
        }
    }
    chain.push(store);
    chain
}

fn def_chain_to_instr(
    func: &Function,
    from: cayman_ir::ValueId,
    target: cayman_ir::ValueId,
    blocks: &[cayman_ir::BlockId],
) -> Option<Vec<InstrId>> {
    fn go(
        func: &Function,
        v: cayman_ir::ValueId,
        target: cayman_ir::ValueId,
        blocks: &[cayman_ir::BlockId],
        seen: &mut Vec<cayman_ir::ValueId>,
        path: &mut Vec<InstrId>,
    ) -> bool {
        if v == target {
            return true;
        }
        if seen.contains(&v) {
            return false;
        }
        seen.push(v);
        let ValueDef::Instr(iid) = func.values[v.index()] else {
            return false;
        };
        let Some(b) = func.containing_block(iid) else {
            return false;
        };
        if !blocks.contains(&b) {
            return false;
        }
        path.push(iid);
        let mut found = false;
        func.instr(iid).for_each_operand(|op| {
            if found {
                return;
            }
            if let Operand::Value(u) = op {
                if go(func, u, target, blocks, seen, path) {
                    found = true;
                }
            }
        });
        if !found {
            path.pop();
        }
        found
    }
    let mut seen = Vec::new();
    let mut path = Vec::new();
    go(func, from, target, blocks, &mut seen, &mut path).then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::{FuncId, Type};

    fn deps_for(m: &cayman_ir::Module) -> (Vec<LoopDeps>, FuncCtx) {
        let f = m.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let aa = AccessAnalysis::run(m, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &aa);
        (deps, ctx)
    }

    #[test]
    fn memory_accumulation_is_carried_in_inner_loop_only() {
        // z[i] += A[i][j]*B[i][j]: inner loop carries (z invariant in j),
        // outer loop does not (z[i] moves with i).
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[8, 4]);
        let b = mb.array("B", Type::F64, &[8, 4]);
        let z = mb.array("z", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let av = fb.load_idx(a, &[i, j]);
                    let bv = fb.load_idx(b, &[i, j]);
                    let p = fb.fmul(av, bv);
                    let zv = fb.load_idx(z, &[i]);
                    let s = fb.fadd(zv, p);
                    fb.store_idx(z, &[i], s);
                });
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let (deps, ctx) = deps_for(&m);
        let inner = ctx
            .forest
            .ids()
            .find(|&l| ctx.forest.get(l).depth == 2)
            .expect("inner");
        let outer = ctx
            .forest
            .ids()
            .find(|&l| ctx.forest.get(l).depth == 1)
            .expect("outer");
        assert!(deps[inner.index()].has_carried(), "inner carries z[i]");
        assert_eq!(deps[inner.index()].mem.len(), 1);
        let rec = &deps[inner.index()].mem[0];
        assert_eq!(rec.distance, 1);
        // chain includes load z, fadd, store z (≥3 instrs)
        assert!(rec.chain.len() >= 3, "{:?}", rec.chain);
        assert!(
            !deps[outer.index()].has_carried(),
            "outer iterations touch disjoint z[i]"
        );
    }

    #[test]
    fn elementwise_loop_has_no_deps() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        let y = mb.array("y", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                let w = fb.fmul(v, fb.fconst(2.0));
                fb.store_idx(y, &[i], w);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let (deps, _) = deps_for(&m);
        assert!(!deps[0].has_carried());
    }

    #[test]
    fn scalar_reduction_is_carried() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        mb.function("f", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let f = fb.counted_loop_carry(0, 8, 1, &[(Type::F64, init)], |fb, i, c| {
                let v = fb.load_idx(x, &[i]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(f[0]));
        });
        let m = mb.finish();
        let (deps, _) = deps_for(&m);
        assert!(deps[0].has_carried());
        assert_eq!(deps[0].scalar.len(), 1);
        // the chain contains the fadd
        assert!(!deps[0].scalar[0].chain.is_empty());
        assert!(deps[0].mem.is_empty(), "reduction is register-carried");
    }

    #[test]
    fn indirect_store_is_conservative() {
        let mut mb = ModuleBuilder::new("t");
        let idx = mb.array("idx", Type::I64, &[8]);
        let x = mb.array("x", Type::F64, &[8]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let k = fb.load_idx_ty(idx, &[i], Type::I64);
                let v = fb.load_idx(x, &[k]);
                fb.store_idx(x, &[k], v);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let (deps, _) = deps_for(&m);
        assert!(deps[0].conservative);
        assert!(deps[0].has_carried());
    }

    #[test]
    fn shifted_stream_has_distance() {
        // y[i] = y[i-1] + x[i] as: load y[i-1+1... store y[i], load y[i-1]
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[9]);
        let y = mb.array("y", Type::F64, &[9]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(1, 9, 1, |fb, i| {
                let one = fb.iconst(1);
                let im1 = fb.sub(i, one);
                let prev = fb.load_idx(y, &[im1]);
                let xv = fb.load_idx(x, &[i]);
                let s = fb.fadd(prev, xv);
                fb.store_idx(y, &[i], s);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let (deps, _) = deps_for(&m);
        assert_eq!(deps[0].mem.len(), 1, "y store feeds y load");
        assert_eq!(deps[0].mem[0].distance, 1);
    }
}
