//! Property-based differential testing of the pre-decoded engine against
//! the reference tree walker: random loop nests, carried reductions
//! (including swapped carries, which need parallel phi moves), branches,
//! calls, memory traffic, division-by-zero and step-limit error paths must
//! all be observationally identical across both engines. Randomly
//! corrupted modules either fail verification, without a panic, or run
//! identically on both engines too: the verifier is the decoder's only
//! gate.

use cayman_ir::builder::ModuleBuilder;
use cayman_ir::interp::{ExecProfile, Interp, InterpError, Memory, Value};
use cayman_ir::module::ValueDef;
use cayman_ir::{BlockId, Function, Instr, InstrId, Module, Operand, Terminator, Type, ValueId};
use cayman_testkit::program::arbitrary_module;
use cayman_testkit::{prop_assert, prop_assert_eq, prop_check, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bit-level comparison of two optional return values (`f64` compared via
/// `to_bits` so a NaN-producing program can't silently pass).
fn values_bit_equal(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::F(x)), Some(Value::F(y))) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn profiles_bit_equal(a: &ExecProfile, b: &ExecProfile) -> bool {
    a.block_counts == b.block_counts
        && a.total_cycles == b.total_cycles
        && values_bit_equal(&a.return_value, &b.return_value)
}

/// Runs `module` under both engines (same memory image, same step limit) and
/// checks the outcomes are identical — profile-for-profile or
/// error-for-error.
fn check_both(
    module: &Module,
    memory: &Memory,
    limit: Option<u64>,
) -> Result<Result<ExecProfile, InterpError>, String> {
    let mut dec = Interp::new(module);
    let mut walk = Interp::reference(module);
    dec.memory = memory.clone();
    walk.memory = memory.clone();
    if let Some(l) = limit {
        dec = dec.with_step_limit(l);
        walk = walk.with_step_limit(l);
    }
    let d = dec.run(&[]);
    let w = walk.run(&[]);
    match (&d, &w) {
        (Ok(dp), Ok(wp)) => {
            if !profiles_bit_equal(dp, wp) {
                return Err(format!(
                    "profiles diverge: decoded {:?}/{} vs walker {:?}/{}",
                    dp.return_value, dp.total_cycles, wp.return_value, wp.total_cycles
                ));
            }
        }
        (Err(de), Err(we)) => {
            if de != we {
                return Err(format!("errors diverge: decoded {de:?} vs walker {we:?}"));
            }
        }
        _ => {
            return Err(format!(
                "outcomes diverge: decoded {:?} vs walker {:?}",
                d.as_ref().map(|p| &p.return_value),
                w.as_ref().map(|p| &p.return_value)
            ))
        }
    }
    Ok(d)
}

/// Random nested loop nests with carried reductions, branches, calls and
/// memory traffic behave identically under both engines.
#[test]
fn decoded_matches_walker_on_random_programs() {
    prop_check!(cases = 96, |rng| {
        // Pre-draw every random choice so the builder closures stay simple.
        let size = rng.range_usize(4, 12);
        let outer = rng.range_i64(1, 10);
        let inner = rng.range_i64(1, 8);
        let swap = rng.bool();
        let with_if = rng.bool();
        let with_call = rng.bool();
        let divisor = rng.range_i64(0, 4); // 0 → division-by-zero error path
        let c0 = rng.range_f64(-2.0, 2.0);
        let c1 = rng.range_f64(-2.0, 2.0);
        let limit = if rng.range_u32(0, 4) == 0 {
            Some(rng.range_i64(1, 200) as u64) // sometimes trip the limit
        } else {
            None
        };
        let fill_seed: Vec<f64> = (0..size * size).map(|_| rng.range_f64(-4.0, 4.0)).collect();

        let mut mb = ModuleBuilder::new("prop");
        let a = mb.array("A", Type::F64, &[size, size]);
        let helper = mb.function("helper", &[Type::I64], Some(Type::I64), |fb| {
            let p = fb.param(0);
            let one = fb.iconst(1);
            let r = fb.add(p, one);
            fb.ret(Some(r));
        });
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init0 = fb.fconst(c0);
            let init1 = fb.fconst(c1);
            let sz = fb.iconst(size as i64);
            let finals = fb.counted_loop_carry(
                0,
                outer,
                1,
                &[(Type::F64, init0), (Type::F64, init1)],
                |fb, i, c| {
                    // Keep indices in bounds via modulo; division errors (not
                    // OOB) are this test's deliberate error path.
                    let im = fb.srem(i, sz);
                    let zero = fb.fconst(0.0);
                    let inner_fin =
                        fb.counted_loop_carry(0, inner, 1, &[(Type::F64, zero)], |fb, j, cc| {
                            let jm = fb.srem(j, sz);
                            let v = fb.load_idx(a, &[im, jm]);
                            vec![fb.fadd(cc[0], v)]
                        });
                    let mut x = inner_fin[0];
                    if with_if {
                        let two = fb.iconst(2);
                        let rem = fb.srem(i, two);
                        let one = fb.iconst(1);
                        let odd = fb.icmp_eq(rem, one);
                        x = fb.if_then_else_val(
                            odd,
                            Type::F64,
                            |fb| fb.fmul(x, fb.fconst(1.5)),
                            |fb| fb.fsub(x, fb.fconst(0.25)),
                        );
                    }
                    let idx = if with_call {
                        let next = fb.call(helper, &[im], Some(Type::I64)).expect("returns");
                        fb.srem(next, sz)
                    } else {
                        im
                    };
                    let dvs = fb.iconst(divisor);
                    let q = fb.sdiv(i, dvs); // divisor 0 errors identically
                    let qf = fb.sitofp(q);
                    let y = fb.fadd(c[1], qf);
                    fb.store_idx(a, &[idx, im], x);
                    let n0 = fb.fadd(c[0], x);
                    // Swapped carries force a genuine parallel phi move.
                    if swap {
                        vec![y, n0]
                    } else {
                        vec![n0, y]
                    }
                },
            );
            let out = fb.fadd(finals[0], finals[1]);
            fb.ret(Some(out));
        });
        let m = mb.finish();
        m.verify().expect("builder modules verify");

        let mut mem = Memory::for_module(&m);
        for (flat, &v) in fill_seed.iter().enumerate() {
            mem.set_f64(a, flat, v);
        }
        let outcome = check_both(&m, &mem, limit)?;
        if divisor == 0 && limit.is_none() {
            let err = outcome.err().ok_or("division by zero must error")?;
            prop_assert!(
                err.message.contains("division by zero"),
                "unexpected error: {}",
                err.message
            );
        }
        Ok(())
    });
}

/// Both engines leave bit-identical memory behind, not just identical
/// profiles (stores must land in the same cells with the same values).
#[test]
fn decoded_and_walker_leave_identical_memory() {
    prop_check!(cases = 48, |rng| {
        let size = rng.range_usize(2, 10);
        let n = rng.range_i64(1, 20);
        let scale = rng.range_f64(0.5, 3.0);
        let fill: Vec<f64> = (0..size).map(|_| rng.range_f64(-8.0, 8.0)).collect();

        let mut mb = ModuleBuilder::new("prop");
        let a = mb.array("A", Type::F64, &[size]);
        mb.function("main", &[], None, |fb| {
            let sz = fb.iconst(size as i64);
            fb.counted_loop(0, n, 1, |fb, i| {
                let im = fb.srem(i, sz);
                let v = fb.load_idx(a, &[im]);
                let w = fb.fmul(v, fb.fconst(scale));
                fb.store_idx(a, &[im], w);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        m.verify().expect("verifies");

        let mut mem = Memory::for_module(&m);
        for (flat, &v) in fill.iter().enumerate() {
            mem.set_f64(a, flat, v);
        }
        let mut dec = Interp::new(&m);
        let mut walk = Interp::reference(&m);
        dec.memory = mem.clone();
        walk.memory = mem;
        dec.run(&[]).expect("decoded runs");
        walk.run(&[]).expect("walker runs");
        for flat in 0..size {
            prop_assert_eq!(
                dec.memory.get_f64(a, flat).to_bits(),
                walk.memory.get_f64(a, flat).to_bits()
            );
        }
        Ok(())
    });
}

/// A replacement for `old`: half the time any value id (two past the end
/// included), otherwise a value of the same type, so some retargets still
/// type-check and reach the engines.
fn retarget(f: &Function, old: Operand, rng: &mut Rng) -> Operand {
    let any = ValueId(rng.range_usize(0, f.values.len() + 2) as u32);
    let ty = match old {
        Operand::Value(v) if v.index() < f.values.len() => f.value_type(v),
        _ => None,
    };
    let same: Vec<ValueId> = (0..f.values.len() as u32)
        .map(ValueId)
        .filter(|&v| ty.is_some() && f.value_type(v) == ty)
        .collect();
    Operand::Value(if same.is_empty() || rng.bool() {
        any
    } else {
        *rng.choose(&same)
    })
}

/// Applies one random arena mutation to a random function of `m` and names
/// it: an instruction id duplicated, dropped or moved; an operand or branch
/// target retargeted (sometimes out of range); a phi put in the entry
/// block; or a store or void call given a result.
fn mutate(m: &mut Module, rng: &mut Rng) -> &'static str {
    let fi = rng.range_usize(0, m.functions.len());
    let f = &mut m.functions[fi];
    let nblocks = f.blocks.len();
    let nvalues = f.values.len();
    let placed: Vec<(usize, usize)> = (0..nblocks)
        .flat_map(|b| (0..f.blocks[b].instrs.len()).map(move |at| (b, at)))
        .collect();
    let what = match rng.range_u32(0, 7) {
        kind @ 0..=2 if !placed.is_empty() => {
            let &(from, at) = rng.choose(&placed);
            let iid = f.blocks[from].instrs[at];
            if kind != 0 {
                f.blocks[from].instrs.remove(at);
            }
            if kind != 1 {
                let to = if rng.bool() {
                    from
                } else {
                    rng.range_usize(0, nblocks)
                };
                let to = &mut f.blocks[to].instrs;
                to.insert(rng.range_usize(0, to.len() + 1), iid);
            }
            [
                "duplicate an instruction",
                "drop an instruction",
                "move an instruction",
            ][kind as usize]
        }
        3 => {
            // The k-th operand of a random placed instruction or terminator.
            let mut ops = Vec::new();
            let site = if placed.is_empty() || rng.bool() {
                None
            } else {
                Some(*rng.choose(&placed))
            };
            let b = site.map_or(rng.range_usize(0, nblocks), |(b, _)| b);
            match site {
                Some((b, at)) => {
                    f.instrs[f.blocks[b].instrs[at].index()].for_each_operand(|o| ops.push(o))
                }
                None => f.blocks[b].terminator().for_each_operand(|o| ops.push(o)),
            }
            if ops.is_empty() {
                return "nothing";
            }
            let k = rng.range_usize(0, ops.len());
            let target = retarget(f, ops[k], rng);
            let mut i = 0;
            let mut set = |op: &mut Operand| {
                if i == k {
                    *op = target;
                }
                i += 1;
            };
            match site {
                Some((b, at)) => {
                    let iid = f.blocks[b].instrs[at];
                    f.instrs[iid.index()].for_each_operand_mut(&mut set);
                }
                None => f.blocks[b]
                    .term
                    .as_mut()
                    .expect("terminated")
                    .for_each_operand_mut(set),
            }
            "retarget an operand"
        }
        4 => {
            let branches: Vec<usize> = (0..nblocks)
                .filter(|&b| !matches!(f.blocks[b].term, Some(Terminator::Ret(_))))
                .collect();
            if branches.is_empty() {
                return "nothing";
            }
            let b = *rng.choose(&branches);
            let target = BlockId(rng.range_usize(0, nblocks + 1) as u32);
            match f.blocks[b].term.as_mut().expect("terminated") {
                Terminator::Br(t) => *t = target,
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => *(if rng.bool() { then_bb } else { else_bb }) = target,
                Terminator::Ret(_) => unreachable!("filtered out"),
            }
            "retarget a branch"
        }
        5 => {
            let iid = InstrId(f.instrs.len() as u32);
            f.instrs.push(Instr::Phi {
                ty: Type::I64,
                incomings: Vec::new(),
            });
            f.instr_results.push(Some(ValueId(nvalues as u32)));
            f.values.push(ValueDef::Instr(iid));
            f.blocks[0].instrs.insert(0, iid);
            "put a phi in the entry block"
        }
        6 => {
            let Some(i) = f.instrs.iter().position(|i| i.result_type().is_none()) else {
                return "nothing";
            };
            f.instr_results[i] = Some(ValueId(nvalues as u32));
            f.values.push(ValueDef::Instr(InstrId(i as u32)));
            "give a store or void call a result"
        }
        _ => return "nothing",
    };
    f.invalidate_block_map();
    what
}

/// Corrupted generated programs: `verify` never panics, and whenever it
/// accepts, the decoded and reference runs agree bit for bit or trap with
/// the same message.
#[test]
fn verify_gates_decode_on_mutated_programs() {
    prop_check!(cases = 512, |rng| {
        let mut m = arbitrary_module(rng);
        let mut applied = Vec::new();
        for _ in 0..rng.range_usize(1, 3) {
            applied.push(mutate(&mut m, rng));
        }
        let verdict = catch_unwind(AssertUnwindSafe(|| m.verify()))
            .map_err(|_| format!("verify panicked after {applied:?}"))?;
        if verdict.is_ok() {
            let memory = Memory::for_module(&m);
            catch_unwind(AssertUnwindSafe(|| {
                check_both(&m, &memory, Some(200_000)).map(drop)
            }))
            .map_err(|_| format!("an engine panicked after {applied:?}"))?
            .map_err(|e| format!("{e} after {applied:?}\n{}", m.to_text()))?;
        }
        Ok(())
    });
}
